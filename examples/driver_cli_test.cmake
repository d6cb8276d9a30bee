# CLI contract of panorama_driver's observability flags, run as a ctest:
#   * an unwritable --trace/--metrics/--profile path fails the run with a
#     clear diagnostic and a non-zero exit (a silent partial run is worse
#     than no run);
#   * a good run writes all three artifacts, and the profile is the §4.5
#     cost-profile schema;
#   * --annotate no longer drops the artifacts on the early-return path;
#   * --no-prefilter turns the query tier off in every mode (single file,
#     --corpus-run, --reanalyze, --save-session, --load-session), and the
#     single-file path honours --no-cache;
#   * --corpus NAME takes an exact id or a unique substring, and exits 2
#     naming every match when NAME is ambiguous;
#   * --stats reports the atom table's occupancy, with and without the
#     cache, and the region table's;
#   * --summaries computes the on-demand DE sets for its DE_i lines;
#   * --save-session and --load-session runs of tiny.f, of every corpus
#     program and of the wide-guard kernel print exactly what the batch run
#     prints, under --explain;
#   * --explain on the wide-guard kernel, whose two loops ask the same
#     inconclusive FM queries, prints the same at 1 and 8 threads, and a
#     warm --reanalyze prints the loop blocks a cold run of the edited file
#     prints;
#   * --reanalyze --stats shows a re-summarized procedure whose summary did
#     not change keeping its callers clean, a reused loop re-analyzed for a
#     changed ueAfter, and (in the profile) each caller's cause naming the
#     callee whose summary changed.
# Invoked with -DDRIVER=<path> -DWORKDIR=<scratch dir> -DCORPUS_DIR=<corpus/>.

file(MAKE_DIRECTORY "${WORKDIR}")
set(BAD "${WORKDIR}/no-such-dir/out.json")

# Sets `out` to `text` without its first line (the heading that names the
# input). A REGEX REPLACE of "^[^\n]*\n" would not do: CMake re-anchors `^`
# after each match and so deletes every line.
function(drop_first_line out text)
  string(FIND "${text}" "\n" nl)
  math(EXPR nl "${nl} + 1")
  string(SUBSTRING "${text}" ${nl} -1 rest)
  set(${out} "${rest}" PARENT_SCOPE)
endfunction()

function(expect_failure flag diagnostic)
  execute_process(
    COMMAND "${DRIVER}" --corpus-run "${flag}=${BAD}"
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(code EQUAL 0)
    message(FATAL_ERROR "${flag}=${BAD} exited 0; expected a failure")
  endif()
  if(NOT err MATCHES "${diagnostic}")
    message(FATAL_ERROR "${flag} failure lacks diagnostic '${diagnostic}': ${err}")
  endif()
endfunction()

expect_failure(--trace "cannot write trace file")
expect_failure(--metrics "cannot write metrics file")
expect_failure(--profile "cannot write profile file")
expect_failure(--dump-ir "cannot write IR dump file")

# The happy path: one corpus run, all three artifacts.
execute_process(
  COMMAND "${DRIVER}" --corpus-run
          --trace=${WORKDIR}/trace.json
          --metrics=${WORKDIR}/metrics.json
          --profile=${WORKDIR}/profile.json
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "corpus run with artifacts failed (${code}): ${err}")
endif()
foreach(artifact trace.json metrics.json profile.json)
  if(NOT EXISTS "${WORKDIR}/${artifact}")
    message(FATAL_ERROR "corpus run did not write ${artifact}")
  endif()
endforeach()
file(READ "${WORKDIR}/profile.json" profile)
if(NOT profile MATCHES "\"schema_version\": 1")
  message(FATAL_ERROR "profile.json is not the cost-profile schema: ${profile}")
endif()
if(NOT profile MATCHES "\"top_queries\"")
  message(FATAL_ERROR "profile.json lacks the top_queries section")
endif()

# --annotate used to return before the artifact writes; it must both fail on
# a bad path and write on a good one.
file(WRITE "${WORKDIR}/tiny.f"
"      program main
      real a(10)
      do i = 1, 10
        a(i) = 0.0
      enddo
      end
")
execute_process(
  COMMAND "${DRIVER}" --annotate "--trace=${BAD}" "${WORKDIR}/tiny.f"
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "--annotate with unwritable --trace exited 0")
endif()
execute_process(
  COMMAND "${DRIVER}" --annotate "--trace=${WORKDIR}/annotate-trace.json" "${WORKDIR}/tiny.f"
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "--annotate with writable --trace failed (${code}): ${err}")
endif()
if(NOT EXISTS "${WORKDIR}/annotate-trace.json")
  message(FATAL_ERROR "--annotate dropped the --trace artifact")
endif()

# --dump-ir writes the frontend-neutral IR for a single-file run.
execute_process(
  COMMAND "${DRIVER}" "--dump-ir=${WORKDIR}/tiny.ir" "${WORKDIR}/tiny.f"
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "--dump-ir on tiny.f failed (${code}): ${err}")
endif()
if(NOT EXISTS "${WORKDIR}/tiny.ir")
  message(FATAL_ERROR "--dump-ir did not write the IR dump")
endif()
file(READ "${WORKDIR}/tiny.ir" ir)
if(NOT ir MATCHES "program main" OR NOT ir MATCHES "loop i")
  message(FATAL_ERROR "IR dump lacks the program/loop structure: ${ir}")
endif()

# --no-prefilter and --no-cache set the process-wide query tier and cache
# before analyzing: the reports do not change, the prefilter counters vanish
# from --metrics, and --stats shows a query cache that kept nothing.
set(kernel "${CORPUS_DIR}/ARC2D_filerx_15.f")
execute_process(
  COMMAND "${DRIVER}" "--metrics=${WORKDIR}/default.json" "${kernel}"
  RESULT_VARIABLE code OUTPUT_VARIABLE default_out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "default run of ${kernel} failed (${code}): ${err}")
endif()
file(READ "${WORKDIR}/default.json" metrics)
if(NOT metrics MATCHES "\"query.prefilter.attempts\": [1-9]")
  message(FATAL_ERROR "default run made no prefilter attempts: ${metrics}")
endif()
execute_process(
  COMMAND "${DRIVER}" --no-prefilter "--metrics=${WORKDIR}/no-prefilter.json" "${kernel}"
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "--no-prefilter run failed (${code}): ${err}")
endif()
if(NOT out STREQUAL default_out)
  message(FATAL_ERROR "--no-prefilter changed the reports:\n${out}\n-- vs --\n${default_out}")
endif()
file(READ "${WORKDIR}/no-prefilter.json" metrics)
if(metrics MATCHES "\"query.prefilter.attempts\": [1-9]")
  message(FATAL_ERROR "--no-prefilter still ran the prefilter tier: ${metrics}")
endif()

# The same contract in the other modes: a default run records prefilter
# attempts, the --no-prefilter run of the same arguments records none.
function(expect_tier_switch label)
  execute_process(
    COMMAND "${DRIVER}" "--metrics=${WORKDIR}/${label}-tiered.json" ${ARGN}
    RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${label} run failed (${code}): ${err}")
  endif()
  file(READ "${WORKDIR}/${label}-tiered.json" metrics)
  if(NOT metrics MATCHES "\"query.prefilter.attempts\": [1-9]")
    message(FATAL_ERROR "default ${label} run made no prefilter attempts: ${metrics}")
  endif()
  execute_process(
    COMMAND "${DRIVER}" --no-prefilter "--metrics=${WORKDIR}/${label}-fm-only.json" ${ARGN}
    RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "--no-prefilter ${label} run failed (${code}): ${err}")
  endif()
  file(READ "${WORKDIR}/${label}-fm-only.json" metrics)
  if(metrics MATCHES "\"query.prefilter.attempts\": [1-9]")
    message(FATAL_ERROR "--no-prefilter ${label} run still ran the prefilter tier: ${metrics}")
  endif()
endfunction()
expect_tier_switch(corpus-run --corpus-run)
expect_tier_switch(reanalyze "${kernel}" "--reanalyze=${kernel}")
expect_tier_switch(save-session "--save-session=${WORKDIR}/tier.pano" "${kernel}")
execute_process(
  COMMAND "${DRIVER}" --stats "${kernel}"
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT out MATCHES "query cache: [^\n]*, [1-9][0-9]* entries,")
  message(FATAL_ERROR "--stats shows an empty query cache on a default run: ${out}")
endif()
set(atom_table_line
    "atom table: [1-9][0-9]* distinct atoms, [1-9][0-9]* stored negations, [1-9][0-9]* bytes")
if(NOT out MATCHES "${atom_table_line}")
  message(FATAL_ERROR "--stats lacks the atom table's occupancy: ${out}")
endif()
if(NOT out MATCHES "region table: [1-9][0-9]* distinct regions, [1-9][0-9]* bytes, shard occupancy [0-9]+\\.\\.[1-9][0-9]*")
  message(FATAL_ERROR "--stats lacks the region table's occupancy: ${out}")
endif()
execute_process(
  COMMAND "${DRIVER}" --no-cache --stats "${kernel}"
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "--no-cache --stats run failed (${code}): ${err}")
endif()
string(FIND "${out}" "${default_out}" at)
if(NOT at EQUAL 0)
  message(FATAL_ERROR "--no-cache changed the reports:\n${out}\n-- vs --\n${default_out}")
endif()
if(NOT out MATCHES "query cache: [^\n]*, 0 entries,")
  message(FATAL_ERROR "--no-cache --stats shows a populated query cache: ${out}")
endif()
# The atom table is not a cache: it stays on under --no-cache.
if(NOT out MATCHES "${atom_table_line}")
  message(FATAL_ERROR "--no-cache --stats lacks a populated atom table: ${out}")
endif()

# DE sets are computed on demand: the analysis runs without them, and
# --summaries turns them on for its DE_i lines.
execute_process(
  COMMAND "${DRIVER}" --summaries "${CORPUS_DIR}/MDG_interf_1000.f"
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "--summaries run failed (${code}): ${err}")
endif()
if(NOT out MATCHES "\n      DE_i   = \\[")
  message(FATAL_ERROR "--summaries printed no non-empty DE_i line: ${out}")
endif()

# The C-like frontend is dispatched by extension and reaches the same
# pipeline (classification in the report proves the analysis ran).
file(WRITE "${WORKDIR}/tiny.cl"
"main tiny() {
  const n = 10;
  int i;
  real a[10];
  for (i = 1 to n) {
    a[i] = 0.0;
  }
}
")
execute_process(
  COMMAND "${DRIVER}" "${WORKDIR}/tiny.cl"
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "C-like driver run failed (${code}): ${err}")
endif()
if(NOT out MATCHES "parallel")
  message(FATAL_ERROR "C-like driver run produced no classification: ${out}")
endif()

# ---- service-mode flags (DESIGN.md §4.8) ----
# Strict validation: unwritable/unreadable session paths and bad --daemon
# arguments exit non-zero with a clear diagnostic.

execute_process(
  COMMAND "${DRIVER}" "--save-session=${WORKDIR}/no-such-dir/s.pano" "${WORKDIR}/tiny.f"
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "--save-session into a missing directory exited 0")
endif()
if(NOT err MATCHES "cannot save session")
  message(FATAL_ERROR "--save-session failure lacks its diagnostic: ${err}")
endif()

execute_process(
  COMMAND "${DRIVER}" "--load-session=${WORKDIR}/never-written.pano" "${WORKDIR}/tiny.f"
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "--load-session of a missing snapshot exited 0")
endif()
if(NOT err MATCHES "cannot load session")
  message(FATAL_ERROR "--load-session failure lacks its diagnostic: ${err}")
endif()

# A corrupted snapshot is rejected with the store's structured diagnostic.
file(WRITE "${WORKDIR}/garbage.pano" "this is not a session snapshot")
execute_process(
  COMMAND "${DRIVER}" "--load-session=${WORKDIR}/garbage.pano" "${WORKDIR}/tiny.f"
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "--load-session of garbage exited 0")
endif()
if(NOT err MATCHES "not a panorama session snapshot|truncated snapshot")
  message(FATAL_ERROR "garbage snapshot rejection lacks the store diagnostic: ${err}")
endif()

foreach(flag --daemon= --save-session= --load-session=)
  execute_process(
    COMMAND "${DRIVER}" "${flag}" "${WORKDIR}/tiny.f"
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(code EQUAL 0)
    message(FATAL_ERROR "empty ${flag} exited 0")
  endif()
endforeach()

# --daemon refuses to clobber an existing non-socket file.
execute_process(
  COMMAND "${DRIVER}" "--daemon=${WORKDIR}/tiny.f"
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "--daemon over an existing regular file exited 0")
endif()
if(NOT err MATCHES "is not a socket")
  message(FATAL_ERROR "--daemon clobber refusal lacks its diagnostic: ${err}")
endif()

# The wide-guard kernel: the same loop twice, guarded by a sum of 26
# variables (more than the FM engine's 24), so both loops' dependence tests
# ask the same inconclusive queries and only the first asker evaluates each
# one cold. wide_guard_edited.f adds a statement to the first loop.
set(vars "x1")
set(sum "x1")
foreach(k RANGE 2 26)
  string(APPEND vars ", x${k}")
  string(APPEND sum " + x${k}")
endforeach()
function(wide_guard_loop out extra)
  set(${out} "      do i = 2, n
        if (${sum} .gt. i) then
          w(i) = 1.0
        endif
        a(i) = w(i)
${extra}      enddo
" PARENT_SCOPE)
endfunction()
wide_guard_loop(loop "")
wide_guard_loop(edited_loop "        b(i) = 3.0\n")
foreach(variant wide_guard wide_guard_edited)
  if(variant STREQUAL "wide_guard")
    set(decl "a(100), w(100)")
    set(first "${loop}")
  else()
    set(decl "a(100), w(100), b(100)")
    set(first "${edited_loop}")
  endif()
  file(WRITE "${WORKDIR}/${variant}.f"
"      program p
      integer n, ${vars}
      n = 50
      call s(n, ${vars})
      end

      subroutine s(n, ${vars})
      integer n, i, ${vars}
      real ${decl}
      common /g/ a
${first}${loop}      end
")
endforeach()
set(wide_guard "${WORKDIR}/wide_guard.f")
set(wide_guard_edited "${WORKDIR}/wide_guard_edited.f")
foreach(threads 1 8)
  execute_process(
    COMMAND "${DRIVER}" --explain --threads=${threads} "${wide_guard}"
    RESULT_VARIABLE code OUTPUT_VARIABLE wide_out_${threads} ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "--explain --threads=${threads} on wide_guard.f failed (${code}): ${err}")
  endif()
endforeach()
if(NOT wide_out_1 MATCHES "why \\[dependence-test\\] flow -> unknown")
  message(FATAL_ERROR "wide_guard.f has no unresolved flow test:\n${wide_out_1}")
endif()
if(NOT wide_out_8 STREQUAL wide_out_1)
  message(FATAL_ERROR "--explain on wide_guard.f differs between 8 and 1 threads:\n${wide_out_8}\n-- vs --\n${wide_out_1}")
endif()
# A warm re-analysis prints its loop blocks between a heading and the session
# stats; they must be the loop blocks of a cold run of the edited file.
execute_process(
  COMMAND "${DRIVER}" --explain "--reanalyze=${wide_guard_edited}" "${wide_guard}"
  RESULT_VARIABLE code OUTPUT_VARIABLE warm_out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "--reanalyze of wide_guard.f failed (${code}): ${err}")
endif()
execute_process(
  COMMAND "${DRIVER}" --explain "${wide_guard_edited}"
  RESULT_VARIABLE code OUTPUT_VARIABLE cold_out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "cold run of wide_guard_edited.f failed (${code}): ${err}")
endif()
drop_first_line(warm_loops "${warm_out}")
drop_first_line(cold_loops "${cold_out}")
string(FIND "${warm_loops}" "session epoch " stats_at)
if(stats_at EQUAL -1)
  message(FATAL_ERROR "--reanalyze output lacks its session stats:\n${warm_out}")
endif()
string(SUBSTRING "${warm_loops}" 0 ${stats_at} warm_loops)
if(NOT warm_loops STREQUAL cold_loops)
  message(FATAL_ERROR "warm --reanalyze loop blocks differ from a cold run of the edited file:\n${warm_loops}\n-- vs --\n${cold_loops}")
endif()

# Save/load round trip over tiny.f, every corpus program and the wide-guard
# kernel: the snapshot-mode runs print exactly what the batch run prints,
# --explain provenance included, cold and restored alike.
file(GLOB corpus_programs "${CORPUS_DIR}/*.f")
list(LENGTH corpus_programs corpus_count)
if(corpus_count LESS 15)
  message(FATAL_ERROR "expected the 15 corpus programs under ${CORPUS_DIR}, found ${corpus_count}")
endif()
foreach(program "${WORKDIR}/tiny.f" ${corpus_programs} "${wide_guard}")
  get_filename_component(stem "${program}" NAME_WE)
  set(snapshot "${WORKDIR}/${stem}.pano")
  execute_process(
    COMMAND "${DRIVER}" --explain "${program}"
    RESULT_VARIABLE code OUTPUT_VARIABLE batch_out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "batch run of ${stem} failed (${code}): ${err}")
  endif()
  execute_process(
    COMMAND "${DRIVER}" --explain "--save-session=${snapshot}" "${program}"
    RESULT_VARIABLE code OUTPUT_VARIABLE save_out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "--save-session run of ${stem} failed (${code}): ${err}")
  endif()
  if(NOT EXISTS "${snapshot}")
    message(FATAL_ERROR "--save-session did not write the snapshot of ${stem}")
  endif()
  execute_process(
    COMMAND "${DRIVER}" --explain "--load-session=${snapshot}" "${program}"
    RESULT_VARIABLE code OUTPUT_VARIABLE load_out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "--load-session run of ${stem} failed (${code}): ${err}")
  endif()
  if(NOT save_out STREQUAL batch_out)
    message(FATAL_ERROR "--save-session output of ${stem} diverges from the batch run:\n${save_out}\n-- vs --\n${batch_out}")
  endif()
  if(NOT load_out STREQUAL batch_out)
    message(FATAL_ERROR "--load-session output of ${stem} diverges from the batch run:\n${load_out}\n-- vs --\n${batch_out}")
  endif()
endforeach()
# A restored session keeps the process's tier: the snapshot was saved with
# the tier on, and the new kernel's procedures are analyzed after the load.
expect_tier_switch(load-session "--load-session=${WORKDIR}/tiny.pano" "${kernel}")

# --corpus NAME: an exact id or a unique substring picks one kernel; an
# ambiguous substring exits 2 and names every match.
execute_process(
  COMMAND "${DRIVER}" --corpus ocean
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "--corpus ocean should exit 2 (ambiguous), got ${code}: ${out}")
endif()
foreach(id "OCEAN ocean/270" "OCEAN ocean/480" "OCEAN ocean/500")
  string(FIND "${err}" "${id}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "--corpus ocean does not name '${id}': ${err}")
  endif()
endforeach()
execute_process(
  COMMAND "${DRIVER}" --corpus no-such-kernel
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code EQUAL 2 OR NOT err MATCHES "unknown corpus kernel")
  message(FATAL_ERROR "--corpus no-such-kernel should exit 2 as unknown (${code}): ${err}")
endif()
# A unique substring and the exact id both analyze TRACK nlfilt/300: their
# loop reports equal the corpus file's. The heading line names the input
# differently, and the compiled-in copy of a kernel starts with one more
# line than its file, so its DO lines are cited one higher: line citations
# are masked.
execute_process(
  COMMAND "${DRIVER}" "${CORPUS_DIR}/TRACK_nlfilt_300.f"
  RESULT_VARIABLE code OUTPUT_VARIABLE file_out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "TRACK_nlfilt_300.f run failed (${code}): ${err}")
endif()
drop_first_line(file_reports "${file_out}")
string(REGEX REPLACE "\\(line [0-9]+\\)" "(line N)" file_reports "${file_reports}")
foreach(name nlfilt "TRACK nlfilt/300")
  execute_process(
    COMMAND "${DRIVER}" --corpus "${name}"
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "--corpus '${name}' failed (${code}): ${err}")
  endif()
  drop_first_line(reports "${out}")
  string(REGEX REPLACE "\\(line [0-9]+\\)" "(line N)" reports "${reports}")
  if(NOT reports STREQUAL file_reports)
    message(FATAL_ERROR "--corpus '${name}' did not analyze TRACK nlfilt/300:\n${out}")
  endif()
endforeach()

# Warm reuse outcomes on a call chain p -> top -> leaf sharing COMMON /g/.
# Edit A reads the leaf's work array after its loop: the loop's copy-out
# flips through ueAfter alone, so that loop is re-analyzed, and the leaf's
# summary (COMMON effects only) stays equal, so its callers stay clean.
# Edit B halves the leaf's loop: its summary changes, and each caller's
# invalidation cause names the callee whose summary changed.
foreach(variant base read_after bound)
  set(after "")
  set(up "100")
  if(variant STREQUAL "read_after")
    set(after "      b(1) = w(1)\n")
  elseif(variant STREQUAL "bound")
    set(up "50")
  endif()
  string(CONFIGURE [=[
      program p
      real a(100)
      common /g/ a
      call top
      end

      subroutine top
      real a(100)
      common /g/ a
      call leaf
      end

      subroutine leaf
      real a(100), w(10), b(10)
      common /g/ a
      do 10 i = 1, @up@
        w(1) = a(i)
        a(i) = w(1) * 2.0
10    continue
@after@      end
]=] chain @ONLY)
  file(WRITE "${WORKDIR}/chain_${variant}.f" "${chain}")
endforeach()
execute_process(
  COMMAND "${DRIVER}" --stats "--reanalyze=${WORKDIR}/chain_read_after.f"
          "${WORKDIR}/chain_base.f"
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "--reanalyze of chain_read_after.f failed (${code}): ${err}")
endif()
foreach(expected "dirty cone: 1 procedure\\(s\\)"
                 "session.summaries_unchanged: 1 re-summarized"
                 "session.ue_after_recomputed: 1 reused"
                 "session.loop_reuse_cause: leaf \\(line 16\\): ue-after-changed")
  if(NOT out MATCHES "${expected}")
    message(FATAL_ERROR "--reanalyze --stats of the read-after edit lacks '${expected}':\n${out}")
  endif()
endforeach()
execute_process(
  COMMAND "${DRIVER}" --stats "--reanalyze=${WORKDIR}/chain_bound.f"
          "--profile=${WORKDIR}/chain_profile.json" "${WORKDIR}/chain_base.f"
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "--reanalyze of chain_bound.f failed (${code}): ${err}")
endif()
if(NOT out MATCHES "dirty cone: 3 procedure\\(s\\)")
  message(FATAL_ERROR "a summary-changing leaf edit must dirty every caller:\n${out}")
endif()
file(READ "${WORKDIR}/chain_profile.json" profile)
foreach(caller_callee "top;leaf" "p;top")
  list(GET caller_callee 0 caller)
  list(GET caller_callee 1 callee)
  if(NOT profile MATCHES "\"unit\": \"${caller}\", \"cause\": \"callee-epoch\", \"detail\": \"callee '${callee}' summary changed\"")
    message(FATAL_ERROR "${caller}'s invalidation cause does not name ${callee}:\n${profile}")
  endif()
endforeach()
