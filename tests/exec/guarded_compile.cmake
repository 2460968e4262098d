# Proves the compiler enforces exec::Guarded<T>: the fixture compiles when
# it reaches the value through lock(), and is rejected for touching a
# private member when it reaches it without.
#
# Invoked as:  cmake -DCXX=<compiler> -DSRC_DIR=<repo>/src
#                    -DFIXTURE=<repo>/tests/exec/guarded_compile.cxx
#                    -P tests/exec/guarded_compile.cmake
if(NOT CXX OR NOT SRC_DIR OR NOT FIXTURE)
  message(FATAL_ERROR "guarded_compile.cmake needs -DCXX, -DSRC_DIR and -DFIXTURE")
endif()

execute_process(
  COMMAND ${CXX} -std=c++20 -fsyntax-only -I${SRC_DIR} ${FIXTURE}
  RESULT_VARIABLE code
  ERROR_VARIABLE diagnostics)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "the locked access does not compile:\n${diagnostics}")
endif()

execute_process(
  COMMAND ${CXX} -std=c++20 -fsyntax-only -DQRN_GUARDED_UNLOCKED -I${SRC_DIR} ${FIXTURE}
  RESULT_VARIABLE code
  ERROR_VARIABLE diagnostics)
if(code EQUAL 0)
  message(FATAL_ERROR "the access without lock() compiled")
endif()
if(NOT diagnostics MATCHES "private")
  message(FATAL_ERROR
    "the access without lock() failed for another reason than access "
    "control:\n${diagnostics}")
endif()

message(STATUS "Guarded<T>: the locked access compiles, the unlocked one does not")
