#include "vm/Bytecode.h"

#include "support/StringUtil.h"

using namespace grift;

const char *grift::opName(Op Code) {
  switch (Code) {
  case Op::PushUnit:
    return "push-unit";
  case Op::PushTrue:
    return "push-true";
  case Op::PushFalse:
    return "push-false";
  case Op::PushInt:
    return "push-int";
  case Op::PushIntBig:
    return "push-int-big";
  case Op::PushChar:
    return "push-char";
  case Op::PushFloat:
    return "push-float";
  case Op::LocalGet:
    return "local-get";
  case Op::LocalSet:
    return "local-set";
  case Op::GlobalGet:
    return "global-get";
  case Op::GlobalSet:
    return "global-set";
  case Op::FreeGet:
    return "free-get";
  case Op::Pop:
    return "pop";
  case Op::Jump:
    return "jump";
  case Op::JumpIfFalse:
    return "jump-if-false";
  case Op::Call:
    return "call";
  case Op::TailCall:
    return "tail-call";
  case Op::Return:
    return "return";
  case Op::Halt:
    return "halt";
  case Op::MakeClosure:
    return "make-closure";
  case Op::ClosureInitFree:
    return "closure-init-free";
  case Op::Cast:
    return "cast";
  case Op::Prim:
    return "prim";
  case Op::MakeTuple:
    return "make-tuple";
  case Op::TupleProj:
    return "tuple-proj";
  case Op::TupleProjDyn:
    return "tuple-proj-dyn";
  case Op::BoxNew:
    return "box-new";
  case Op::BoxNewMono:
    return "box-new-mono";
  case Op::BoxGet:
    return "box-get";
  case Op::BoxGetFast:
    return "box-get-fast";
  case Op::BoxGetMono:
    return "box-get-mono";
  case Op::BoxSet:
    return "box-set";
  case Op::BoxSetFast:
    return "box-set-fast";
  case Op::BoxSetMono:
    return "box-set-mono";
  case Op::UnboxDyn:
    return "unbox-dyn";
  case Op::BoxSetDyn:
    return "box-set-dyn";
  case Op::MakeVector:
    return "make-vector";
  case Op::MakeVectorMono:
    return "make-vector-mono";
  case Op::VecRef:
    return "vec-ref";
  case Op::VecRefFast:
    return "vec-ref-fast";
  case Op::VecRefMono:
    return "vec-ref-mono";
  case Op::VecRefDyn:
    return "vec-ref-dyn";
  case Op::VecSet:
    return "vec-set";
  case Op::VecSetFast:
    return "vec-set-fast";
  case Op::VecSetMono:
    return "vec-set-mono";
  case Op::VecSetDyn:
    return "vec-set-dyn";
  case Op::VecLen:
    return "vec-len";
  case Op::VecLenFast:
    return "vec-len-fast";
  case Op::VecLenDyn:
    return "vec-len-dyn";
  case Op::AppDyn:
    return "app-dyn";
  case Op::TimeStart:
    return "time-start";
  case Op::TimeEnd:
    return "time-end";
  case Op::LocalGetGet:
    return "local-get-get";
  case Op::LocalGetCall:
    return "local-get-call";
  case Op::LocalGetTailCall:
    return "local-get-tail-call";
  case Op::PushIntPrim:
    return "push-int-prim";
  case Op::PrimJumpIfFalse:
    return "prim-jump-if-false";
  case Op::PushFloatPrim:
    return "push-float-prim";
  case Op::PushIntAdd:
    return "push-int-add";
  case Op::PushIntSub:
    return "push-int-sub";
  case Op::LtIntJumpIfFalse:
    return "lt-int-jump-if-false";
  case Op::LeIntJumpIfFalse:
    return "le-int-jump-if-false";
  case Op::EqIntJumpIfFalse:
    return "eq-int-jump-if-false";
  case Op::GeIntJumpIfFalse:
    return "ge-int-jump-if-false";
  case Op::GtIntJumpIfFalse:
    return "gt-int-jump-if-false";
  }
  return "?";
}

std::string VMProgram::str() const {
  std::string Out;
  for (size_t F = 0; F != Functions.size(); ++F) {
    const VMFunction &Fn = Functions[F];
    Out += "fn ";
    Out += std::to_string(F);
    Out += " \"";
    Out += Fn.Name;
    Out += "\" params=";
    Out += std::to_string(Fn.NumParams);
    Out += " locals=";
    Out += std::to_string(Fn.NumLocals);
    Out += '\n';
    for (size_t I = 0; I != Fn.Code.size(); ++I) {
      const Instr &Ins = Fn.Code[I];
      Out += "  ";
      Out += std::to_string(I);
      Out += ": ";
      Out += opName(Ins.Code);
      Out += ' ';
      Out += std::to_string(Ins.A);
      if (Ins.B != 0) {
        Out += ' ';
        Out += std::to_string(Ins.B);
      }
      Out += '\n';
    }
  }
  // The side tables the instructions index, in table order.
  auto Table = [&](const char *Name, size_t Size, auto &&Row) {
    Out += Name;
    Out += ' ';
    Out += std::to_string(Size);
    Out += '\n';
    for (size_t I = 0; I != Size; ++I) {
      Out += "  ";
      Out += std::to_string(I);
      Out += ": ";
      Row(I);
      Out += '\n';
    }
  };
  auto Label = [&](const std::string *L) {
    Out += '@';
    Out += L ? *L : "?";
  };
  Table("casts", Casts.size(), [&](size_t I) {
    Out += Casts[I].Src->str();
    Out += " => ";
    Out += Casts[I].Tgt->str();
    Out += ' ';
    Label(Casts[I].Label);
  });
  Table("sites", Sites.size(), [&](size_t I) { Label(Sites[I].Label); });
  Table("types", TypePool.size(), [&](size_t I) { Out += TypePool[I]->str(); });
  Table("floats", FloatPool.size(),
        [&](size_t I) { Out += formatDouble(FloatPool[I]); });
  Table("ints", IntPool.size(),
        [&](size_t I) { Out += std::to_string(IntPool[I]); });
  Table("globals", GlobalNames.size(), [&](size_t I) { Out += GlobalNames[I]; });
  return Out;
}
