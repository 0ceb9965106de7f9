# Runs every `bench_frontier --preset` at its default scale, concatenates
# their stdout under one "== <preset> ==" header each, and compares the
# result byte for byte with tests/golden/paper_presets.golden. Pins the
# numbers EXPERIMENTS.md reports as bit-reproducible.
#
#   cmake -DBENCH_FRONTIER=<bench_frontier binary> -DGOLDEN=<file>
#         -P paper_presets_golden.cmake
#
# LLMMS_UPDATE_GOLDEN=1 rewrites the golden instead of comparing.

set(presets fig8_1 fig8_2 fig8_3 report alpha_beta prune_margin gamma budget
  hybrid routing multi_agent)

# The golden is taken at the default scale.
unset(ENV{LLMMS_BENCH_QPD})

set(actual "")
foreach(preset IN LISTS presets)
  execute_process(COMMAND "${BENCH_FRONTIER}" --preset ${preset}
    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "preset ${preset} exited with ${rc}")
  endif()
  string(APPEND actual "== ${preset} ==\n${out}")
endforeach()

if(DEFINED ENV{LLMMS_UPDATE_GOLDEN})
  file(WRITE "${GOLDEN}" "${actual}")
  message(STATUS "golden file regenerated at ${GOLDEN}")
  return()
endif()

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR
    "missing golden file; regenerate with LLMMS_UPDATE_GOLDEN=1 ${GOLDEN}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME)
  set(actual_path "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
  file(WRITE "${actual_path}" "${actual}")
  message(FATAL_ERROR
    "paper preset output differs from ${GOLDEN}; actual output written to "
    "${actual_path}. If the change is intentional, regenerate with "
    "LLMMS_UPDATE_GOLDEN=1")
endif()
