# Builds the fixture tree at -O0 and pins ci/tree_rules.py's output on it
# against golden.txt byte for byte. The fixtures keep .cxx and .hxx names
# so the real tree's scan never reads them; they are copied into WORK as
# .cpp and .h, with fixtures/project.cmake as the tree's CMakeLists.txt.
# Then three broken build directories check that the script fails when
# it scans no object, when an object is missing, and on a usage error.
#
# Regenerate the golden deliberately (and review the diff) by running the
# script on WORK/build after a failed run.
#
# Invoked as:  cmake -DCXX=<compiler> -DGENERATOR=<cmake generator>
#                    -DPYTHON=<python3> -DSCRIPT=<repo>/ci/tree_rules.py
#                    -DFIXTURES=<repo>/tests/tree_rules/fixtures
#                    -DGOLDEN=<repo>/tests/tree_rules/golden.txt
#                    -DWORK=<scratch dir> -P tests/tree_rules/run_fixtures.cmake
foreach(var CXX GENERATOR PYTHON SCRIPT FIXTURES GOLDEN WORK)
  if(NOT ${var})
    message(FATAL_ERROR "run_fixtures.cmake needs -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(GLOB_RECURSE fixtures RELATIVE "${FIXTURES}" "${FIXTURES}/*.cxx" "${FIXTURES}/*.hxx")
foreach(fixture IN LISTS fixtures)
  string(REGEX REPLACE "\\.cxx$" ".cpp" copy "${fixture}")
  string(REGEX REPLACE "\\.hxx$" ".h" copy "${copy}")
  configure_file("${FIXTURES}/${fixture}" "${WORK}/tree/${copy}" COPYONLY)
endforeach()
configure_file("${FIXTURES}/project.cmake" "${WORK}/tree/CMakeLists.txt" COPYONLY)

foreach(step
    "-S;${WORK}/tree;-B;${WORK}/build;-G;${GENERATOR};-DCMAKE_CXX_COMPILER=${CXX};-DCMAKE_BUILD_TYPE=Debug;-DCMAKE_CXX_FLAGS_DEBUG=-O0"
    "--build;${WORK}/build;-j;4")
  execute_process(COMMAND "${CMAKE_COMMAND}" ${step}
    RESULT_VARIABLE code OUTPUT_VARIABLE log ERROR_VARIABLE log)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "building the fixture tree failed:\n${log}")
  endif()
endforeach()

execute_process(COMMAND "${PYTHON}" "${SCRIPT}" "${WORK}/build"
  RESULT_VARIABLE code OUTPUT_VARIABLE got ERROR_VARIABLE summary)
if(NOT code EQUAL 1)
  message(FATAL_ERROR "tree_rules.py exited ${code} on the fixtures, expected 1\n${summary}")
endif()
file(READ "${GOLDEN}" want)
if(NOT got STREQUAL want)
  message(FATAL_ERROR
    "fixture findings drifted from ${GOLDEN}\n"
    "--- got ----------------------------------------------------------\n"
    "${got}"
    "--- want ---------------------------------------------------------\n"
    "${want}")
endif()

# Each case: a build directory with this compile_commands.json, the exit
# status and a line the output must hold.
set(cache "CMAKE_HOME_DIRECTORY:INTERNAL=${WORK}/tree\n")
set(source "${WORK}/tree/src/qrn/using.cpp")
set(missing "[{\"directory\": \"${WORK}/missing\", \"file\": \"${source}\", \"command\": \"c++ -o gone.o -c ${source}\"}]")
foreach(case "empty|[]|1|no object to scan" "missing|${missing}|1|missing object")
  string(REPLACE "|" ";" case "${case}")
  list(GET case 0 name)
  list(GET case 1 commands)
  list(GET case 2 status)
  list(GET case 3 line)
  file(WRITE "${WORK}/${name}/CMakeCache.txt" "${cache}")
  file(WRITE "${WORK}/${name}/compile_commands.json" "${commands}")
  execute_process(COMMAND "${PYTHON}" "${SCRIPT}" "${WORK}/${name}"
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE out)
  string(FIND "${out}" "${line}" at)
  if(NOT code EQUAL status OR at EQUAL -1)
    message(FATAL_ERROR "${name}: exit ${code}, expected ${status} and '${line}':\n${out}")
  endif()
endforeach()
execute_process(COMMAND "${PYTHON}" "${SCRIPT}" RESULT_VARIABLE code
  OUTPUT_QUIET ERROR_QUIET)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "tree_rules.py without BUILD_DIR exited ${code}, expected 2")
endif()

list(LENGTH fixtures count)
message(STATUS "tree_rules fixtures: ${count} files match ${GOLDEN}")
