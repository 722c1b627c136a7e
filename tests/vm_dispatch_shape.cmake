# Checks that the VM's computed-goto dispatch really is token-threaded in
# the built library: every handler must end in its own indirect jump.
# GCC merges the identical `goto *JumpTable[...]` tails of the handlers
# into one shared jump unless VM.cpp is built with -fno-gcse and
# -fno-crossjumping (src/vm/CMakeLists.txt); this test fails if that
# collapse comes back.
#
#   cmake -DOBJDUMP=<objdump> -DLIBRARY=<libgrift_vm.a>
#         -DVM_SOURCE=<src/vm/VM.cpp> -DPROCESSOR=<target processor>
#         -P vm_dispatch_shape.cmake
#
# The opcode count is the number of entries in VM.cpp's jump table, which
# a static_assert there keeps equal to NumOpcodes. Passes when
# grift::VM::execute has at least half that many indirect jumps. Prints
# "SKIPPED" (the test's skip expression) when objdump is missing or the
# target's indirect-jump syntax is unknown.

if(NOT OBJDUMP OR NOT EXISTS "${OBJDUMP}")
  message("SKIPPED: no objdump")
  return()
endif()

file(READ "${VM_SOURCE}" Source)
string(REGEX MATCHALL "&&Lbl_[A-Za-z]+" Labels "${Source}")
list(LENGTH Labels NumOpcodes)
if(NumOpcodes EQUAL 0)
  message(FATAL_ERROR "no jump-table entries found in ${VM_SOURCE}")
endif()

execute_process(
  COMMAND "${OBJDUMP}" -d --no-show-raw-insn
          --disassemble=_ZN5grift2VM7executeEv "${LIBRARY}"
  OUTPUT_VARIABLE Disassembly
  RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "objdump failed on ${LIBRARY}")
endif()
if(NOT Disassembly MATCHES "<_ZN5grift2VM7executeEv>:")
  message(FATAL_ERROR "grift::VM::execute not found in ${LIBRARY}")
endif()

# x86-64 `[notrack] jmp *%reg` / `jmp *mem`; AArch64 `br xN`.
if(PROCESSOR MATCHES "x86_64|AMD64|amd64")
  set(IndirectJump "jmp[ \t]+\\*")
elseif(PROCESSOR MATCHES "aarch64|arm64")
  set(IndirectJump "\tbr[ \t]+x")
else()
  message("SKIPPED: unknown indirect-jump syntax on '${PROCESSOR}'")
  return()
endif()
string(REGEX MATCHALL "${IndirectJump}" Jumps "${Disassembly}")
list(LENGTH Jumps NumJumps)

math(EXPR Needed "${NumOpcodes} / 2")
message("grift::VM::execute: ${NumJumps} indirect jumps for "
        "${NumOpcodes} opcodes (need >= ${Needed})")
if(NumJumps LESS Needed)
  message(FATAL_ERROR "VM dispatch is not threaded: the handlers share "
                      "${NumJumps} indirect jump(s)")
endif()
