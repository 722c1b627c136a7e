//===----------------------------------------------------------------------===//
///
/// \file
/// Bytecode for the Grift VM: a stack machine with flat closures,
/// proxy-aware calls, and explicit cast instructions. The compiler
/// (vm/Compiler.h) lowers core IR to this form after closure conversion.
///
/// Cast sites reference the program's cast table (CastDescriptor); in
/// coercion mode the table entries carry coercions allocated once at
/// program load, mirroring the paper's "coercions that are statically
/// known are allocated once at the start of the program".
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_VM_BYTECODE_H
#define GRIFT_VM_BYTECODE_H

#include "ast/Prim.h"
#include "runtime/Runtime.h"

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace grift {

enum class Op : uint8_t {
  // Constants.
  PushUnit,  ///< push ()
  PushTrue,  ///< push #t
  PushFalse, ///< push #f
  PushInt,   ///< push fixnum; A = signed 32-bit immediate
  PushIntBig,///< push fixnum; A = index into IntPool
  PushChar,  ///< push char; A = code point
  PushFloat, ///< push immediate (NaN-boxed) float; A = index into FloatPool

  // Variables. Locals are frame slots; free variables live in the
  // current closure; globals are program-wide.
  LocalGet,  ///< A = slot
  LocalSet,  ///< A = slot; pops
  GlobalGet, ///< A = global index
  GlobalSet, ///< A = global index; pops
  FreeGet,   ///< A = free-variable index of the current closure

  Pop, ///< drop the top of stack

  // Control flow. Jump targets are absolute instruction indices within
  // the current function.
  Jump,        ///< A = target
  JumpIfFalse, ///< A = target; pops condition
  Call,        ///< A = argc; stack: [callee, args...]
  TailCall,    ///< A = argc; reuses the current frame when possible
  Return,      ///< pops result, applies pending return casts
  Halt,        ///< stop; top of stack is the program result

  // Closures.
  MakeClosure,     ///< A = function index, B = capture count; pops captures
  ClosureInitFree, ///< A = free slot; stack: [closure, value]; pops value
                   ///< (letrec backpatching)

  // Casts.
  Cast, ///< A = cast-table index

  // Primitives.
  Prim, ///< A = PrimOp

  // Tuples.
  MakeTuple,    ///< A = size; pops elements
  TupleProj,    ///< A = element index
  TupleProjDyn, ///< A = element index, B = site index (blame label)

  // Boxes. *Checked ops branch on the proxy bit; *Fast ops are emitted
  // by Static Grift (and by monotonic mode at fully static views) where
  // proxies cannot exist; *Mono ops convert between the cell's runtime
  // type and the static view type (A = TypePool index, B = site index).
  BoxNew,
  BoxNewMono, ///< A = TypePool index of the element type (cell RTTI)
  BoxGet,
  BoxGetFast,
  BoxGetMono,
  BoxSet,
  BoxSetFast,
  BoxSetMono,
  UnboxDyn, ///< A = site index
  BoxSetDyn,///< A = site index

  // Vectors.
  MakeVector,
  MakeVectorMono, ///< A = TypePool index of the element type
  VecRef,
  VecRefFast,
  VecRefMono,
  VecRefDyn, ///< A = site index
  VecSet,
  VecSetFast,
  VecSetMono,
  VecSetDyn, ///< A = site index
  VecLen,
  VecLenFast,
  VecLenDyn, ///< A = site index

  // Application of a Dyn value (the Section 3 no-proxy specialization).
  AppDyn, ///< A = argc, B = site index

  // (time E) support.
  TimeStart,
  TimeEnd,

  // Fused superinstructions (peephole pass in the bytecode compiler,
  // see fuseFunction in vm/Compiler.cpp). Each one replaces the FIRST
  // instruction of an adjacent pair; the second instruction stays in its
  // slot as a never-executed placeholder (the handler skips it with
  // ++IP), so jump targets never need remapping. Handlers charge fuel
  // for both component steps so batch/cancel-poll boundaries land
  // exactly where the unfused expansion would put them.
  LocalGetGet,      ///< A, B = slots; push local A, then local B
  LocalGetCall,     ///< A = slot, B = argc; push local A, then call
  LocalGetTailCall, ///< A = slot, B = argc; push local A, then tail call
  PushIntPrim,      ///< A = signed immediate, B = PrimOp
  PrimJumpIfFalse,  ///< A = PrimOp (bool-valued), B = jump target
  PushFloatPrim,    ///< A = FloatPool index, B = PrimOp
  PushIntAdd,       ///< A = signed immediate; push A, then fixnum +
  PushIntSub,       ///< A = signed immediate; push A, then fixnum -
  LtIntJumpIfFalse, ///< A = jump target; fixnum <, then jump-if-false
  LeIntJumpIfFalse, ///< A = jump target; fixnum <=, then jump-if-false
  EqIntJumpIfFalse, ///< A = jump target; fixnum =, then jump-if-false
  GeIntJumpIfFalse, ///< A = jump target; fixnum >=, then jump-if-false
  GtIntJumpIfFalse, ///< A = jump target; fixnum >, then jump-if-false
};

/// First fused opcode; everything from here on is a superinstruction.
constexpr uint8_t FirstFusedOp = static_cast<uint8_t>(Op::LocalGetGet);

/// Number of opcodes (computed-goto jump tables are sized against this).
constexpr size_t NumOpcodes = static_cast<size_t>(Op::GtIntJumpIfFalse) + 1;

/// One fixed-width instruction.
struct Instr {
  Op Code = Op::Halt;
  int32_t A = 0;
  int32_t B = 0;
};

/// A compiled function.
struct VMFunction {
  std::string Name;
  uint32_t NumParams = 0;
  uint32_t NumLocals = 0; // including parameters
  std::vector<Instr> Code;
};

/// A Dyn elimination site: the blame label plus the expected arity for
/// AppDyn (0 for the other forms).
struct DynSite {
  const std::string *Label = nullptr;
};

/// A whole compiled program.
struct VMProgram {
  /// Deque: the compiler keeps references to functions while creating
  /// nested lambdas, so element addresses must be stable.
  std::deque<VMFunction> Functions;
  std::vector<CastDescriptor> Casts;
  std::vector<DynSite> Sites;
  std::vector<const Type *> TypePool; ///< monotonic cell/view types
  std::vector<double> FloatPool;
  std::vector<int64_t> IntPool;
  std::vector<std::string> GlobalNames;
  uint32_t MainFunction = 0;
  CastMode Mode = CastMode::Coercions;
  bool Optimized = false; ///< compiled after the core-IR optimizer ran

  /// Disassembles the program (debugging, golden tests).
  std::string str() const;
};

/// Mnemonic for an opcode (disassembly).
const char *opName(Op Code);

} // namespace grift

#endif // GRIFT_VM_BYTECODE_H
