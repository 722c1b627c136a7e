#include "grift/Grift.h"

#include "frontend/Optimizer.h"
#include "frontend/Parser.h"
#include "frontend/TypeChecker.h"
#include "vm/Compiler.h"

#include <cassert>

using namespace grift;

RunResult Executable::run(std::string Input, const RunLimits &Limits,
                          FaultInjector *Injector) const {
  assert(Owner->ownsCurrentThread() &&
         "Executable run on a thread that does not own its engine "
         "(see Grift.h affinity rules)");
  Runtime RT(Owner->Types, Owner->Coercions, Prog.Mode);
  RT.heap().setFaultInjector(Injector);
  VM Machine(RT, Prog);
  return Machine.run(std::move(Input), Limits);
}

std::optional<Program> Grift::parse(std::string_view Source,
                                    std::string &Errors) {
  DiagnosticEngine Diags;
  std::optional<Program> Ast = parseProgram(Types, Source, Diags);
  if (!Ast || Diags.hasErrors()) {
    Errors += Diags.str();
    return std::nullopt;
  }
  return Ast;
}

std::optional<core::CoreProgram> Grift::check(const Program &Ast,
                                              std::string &Errors) {
  DiagnosticEngine Diags;
  std::optional<core::CoreProgram> Core = typeCheck(Types, Ast, Diags);
  if (!Core || Diags.hasErrors()) {
    Errors += Diags.str();
    return std::nullopt;
  }
  return Core;
}

std::optional<Executable> Grift::compile(std::string_view Source,
                                         CastMode Mode, std::string &Errors,
                                         bool Optimize, bool Fuse) {
  assert(ownsCurrentThread() &&
         "Grift::compile on a thread that does not own this engine "
         "(see Grift.h affinity rules)");
  std::optional<Program> Ast = parse(Source, Errors);
  if (!Ast)
    return std::nullopt;
  return compileAst(*Ast, Mode, Errors, Optimize, Fuse);
}

std::optional<Executable> Grift::compileAst(const Program &Ast, CastMode Mode,
                                            std::string &Errors,
                                            bool Optimize, bool Fuse) {
  std::optional<core::CoreProgram> Core = check(Ast, Errors);
  if (!Core)
    return std::nullopt;
  if (Optimize) {
    // To a fixed point (each pass enables the next, e.g. folded branch
    // conditions expose foldable arithmetic).
    for (unsigned Pass = 0; Pass != 8; ++Pass)
      if (optimizeCore(Types, *Core) == 0)
        break;
  }
  std::string CompileError;
  std::optional<VMProgram> Prog =
      compileProgram(*Core, Types, Coercions, Mode, CompileError, Fuse);
  if (!Prog) {
    Errors += CompileError;
    return std::nullopt;
  }
  Prog->Optimized = Optimize;
  return Executable(*this, std::move(*Prog));
}
