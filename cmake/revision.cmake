# Writes OUT, a header defining RVAAS_GIT_SHA as `git describe --always
# --dirty --abbrev=7` of SOURCE_DIR ("unknown" outside a git checkout). The
# header is rewritten only when the value changes, so an unchanged revision
# recompiles nothing. CMakeLists.txt runs this on every build:
#
#   cmake -DSOURCE_DIR=<repo root> -DOUT=<header> -P cmake/revision.cmake

# Never report the revision of a repository that merely encloses SOURCE_DIR.
get_filename_component(root "${SOURCE_DIR}" REALPATH)
get_filename_component(above "${root}" DIRECTORY)
set(ENV{GIT_CEILING_DIRECTORIES} "${above}")
execute_process(COMMAND git describe --always --dirty --abbrev=7
                WORKING_DIRECTORY "${root}"
                OUTPUT_VARIABLE sha
                OUTPUT_STRIP_TRAILING_WHITESPACE
                RESULT_VARIABLE status
                ERROR_QUIET)
if(NOT status EQUAL 0 OR NOT sha)
  set(sha unknown)
endif()

set(content "#pragma once\n#define RVAAS_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL content)
  file(WRITE "${OUT}" "${content}")
endif()
