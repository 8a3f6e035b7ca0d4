# Runs EXE with ARGS ('|'-separated) and fails unless it exits with CODE
# and its stdout+stderr match REGEX. Driven by memu_cli_test in
# CMakeLists.txt:
#   cmake -DEXE=memu -DARGS="run|abd|--n|-1" -DCODE=1 -DREGEX=... -P cli_expect.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${EXE} ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL CODE)
  message(FATAL_ERROR "exit code ${rc}, want ${CODE}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${REGEX}")
  message(FATAL_ERROR "output does not match '${REGEX}':\n${out}${err}")
endif()
