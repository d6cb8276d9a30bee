# End-to-end smoke of the analysis service (DESIGN.md §4.8/§4.10), run as a
# ctest:
#   * `panorama_driver --daemon=SOCKET` comes up and answers ping;
#   * a client submit prints byte-for-byte what the batch driver prints for
#     the same file;
#   * a byte-identical resubmit into the same named session is served by the
#     whole-file fast path (the --stats block records the skip);
#   * the telemetry plane answers: `status` reports the named session,
#     `metrics` carries the submit latency histograms, `tail` streams the
#     submit_begin/submit_end events, and `panorama_top --once --json`
#     round-trips all three against the live daemon;
#   * telemetry flags without --daemon are a usage error (exit 2);
#   * a client shutdown request stops the daemon and removes the socket;
#   * `--daemon --no-prefilter` serves the same report with the query tier
#     off: its `metrics` reply shows no prefilter attempts.
# Invoked with -DDRIVER=<path> -DCLIENT=<path> -DTOP=<path>
# -DWORKDIR=<scratch dir>.

file(MAKE_DIRECTORY "${WORKDIR}")

# AF_UNIX socket paths are limited to ~107 bytes; the build tree's path can
# exceed that, so the socket lives in /tmp under a random name.
string(RANDOM LENGTH 8 ALPHABET abcdefghijklmnopqrstuvwxyz rand)
set(SOCK "/tmp/pano_smoke_${rand}.sock")

set(SRC "${WORKDIR}/smoke.f")
file(WRITE "${SRC}"
"      subroutine smoke(a, b, n)
      integer n
      real a(n), b(n)
      real t(100)
      do i = 1, n
        t(i) = a(i) * 2.0
        b(i) = t(i) + 1.0
      enddo
      end
")

function(stop_daemon)
  execute_process(COMMAND "${CLIENT}" "${SOCK}" shutdown
                  RESULT_VARIABLE ignored OUTPUT_QUIET ERROR_QUIET)
endfunction()

# Reference: the batch driver's report.
execute_process(
  COMMAND "${DRIVER}" "${SRC}"
  RESULT_VARIABLE code OUTPUT_VARIABLE batch_out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "batch run failed (${code}): ${err}")
endif()

# Starts a daemon in the background (extra driver flags in ARGN) and waits
# for it to answer ping.
function(start_daemon)
  string(JOIN " " flags ${ARGN})
  execute_process(
    COMMAND sh -c "exec '${DRIVER}' --daemon='${SOCK}' ${flags} > '${WORKDIR}/daemon.log' 2>&1 &"
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "could not launch the daemon (${code})")
  endif()
  foreach(attempt RANGE 100)
    execute_process(COMMAND "${CLIENT}" "${SOCK}" ping
                    RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
    if(code EQUAL 0)
      return()
    endif()
    execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.1)
  endforeach()
  file(READ "${WORKDIR}/daemon.log" log)
  message(FATAL_ERROR "daemon never answered ping: ${log}")
endfunction()

# Waits until a shut-down daemon has removed its socket.
function(expect_socket_gone)
  foreach(attempt RANGE 100)
    if(NOT EXISTS "${SOCK}")
      return()
    endif()
    execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.1)
  endforeach()
  message(FATAL_ERROR "daemon did not remove its socket after shutdown")
endfunction()

start_daemon()

# Client submit == batch driver, byte for byte. --name sets the report
# heading to the same input name the batch run printed.
execute_process(
  COMMAND "${CLIENT}" "${SOCK}" submit "${SRC}" "--name=${SRC}" --session=ci
  RESULT_VARIABLE code OUTPUT_VARIABLE client_out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  stop_daemon()
  message(FATAL_ERROR "client submit failed (${code}): ${err}")
endif()
if(NOT client_out STREQUAL batch_out)
  stop_daemon()
  message(FATAL_ERROR "client report diverges from the batch driver:\n${client_out}\n-- vs --\n${batch_out}")
endif()

# Byte-identical resubmit into the same named session: served without
# re-parsing or diffing, and the stats block says so.
execute_process(
  COMMAND "${CLIENT}" "${SOCK}" submit "${SRC}" "--name=${SRC}" --session=ci --stats
  RESULT_VARIABLE code OUTPUT_VARIABLE resubmit_out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  stop_daemon()
  message(FATAL_ERROR "client resubmit failed (${code}): ${err}")
endif()
if(NOT resubmit_out MATCHES "file skips: 1")
  stop_daemon()
  message(FATAL_ERROR "resubmit did not ride the whole-file fast path:\n${resubmit_out}")
endif()

# The telemetry plane, over a fresh connection. `status` sees the named
# session: one analyzed epoch plus the fast-path skip the resubmit took.
execute_process(
  COMMAND "${CLIENT}" "${SOCK}" status --timeout-ms=5000
  RESULT_VARIABLE code OUTPUT_VARIABLE status_out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  stop_daemon()
  message(FATAL_ERROR "client status failed (${code}): ${err}")
endif()
if(NOT status_out MATCHES "\"name\":\"ci\"")
  stop_daemon()
  message(FATAL_ERROR "status does not report the named session:\n${status_out}")
endif()
if(NOT status_out MATCHES "\"epoch\":1" OR NOT status_out MATCHES "\"file_skips\":1")
  stop_daemon()
  message(FATAL_ERROR "status session counters are off:\n${status_out}")
endif()
if(NOT status_out MATCHES "\"submits\":2")
  stop_daemon()
  message(FATAL_ERROR "status does not count both submits:\n${status_out}")
endif()

# `metrics` carries the per-op submit latency histograms with quantiles.
execute_process(
  COMMAND "${CLIENT}" "${SOCK}" metrics --timeout-ms=5000
  RESULT_VARIABLE code OUTPUT_VARIABLE metrics_out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  stop_daemon()
  message(FATAL_ERROR "client metrics failed (${code}): ${err}")
endif()
if(NOT metrics_out MATCHES "daemon.op.submit.wall_us")
  stop_daemon()
  message(FATAL_ERROR "metrics lacks the submit wall histogram:\n${metrics_out}")
endif()
if(NOT metrics_out MATCHES "\"p95\"")
  stop_daemon()
  message(FATAL_ERROR "metrics histograms lack quantiles:\n${metrics_out}")
endif()
if(NOT metrics_out MATCHES "\"query.prefilter.attempts\": *[1-9]")
  stop_daemon()
  message(FATAL_ERROR "the default daemon made no prefilter attempts:\n${metrics_out}")
endif()

# `tail` streams the structured event log: both submits left begin/end
# records tagged with the session name.
execute_process(
  COMMAND "${CLIENT}" "${SOCK}" tail --max=1000 --timeout-ms=5000
  RESULT_VARIABLE code OUTPUT_VARIABLE tail_out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  stop_daemon()
  message(FATAL_ERROR "client tail failed (${code}): ${err}")
endif()
if(NOT tail_out MATCHES "submit_end")
  stop_daemon()
  message(FATAL_ERROR "tail has no submit_end event:\n${tail_out}")
endif()
if(NOT tail_out MATCHES "\"session\":\"ci\"")
  stop_daemon()
  message(FATAL_ERROR "tail events are not tagged with the session:\n${tail_out}")
endif()

# The dashboard's machine mode round-trips status+metrics+tail in one doc.
execute_process(
  COMMAND "${TOP}" "${SOCK}" --once --json --timeout-ms=5000
  RESULT_VARIABLE code OUTPUT_VARIABLE top_out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  stop_daemon()
  message(FATAL_ERROR "panorama_top --once --json failed (${code}): ${err}")
endif()
foreach(needle "\"status\":" "\"metrics\":" "\"tail\":" "uptime_ms" "daemon.op.submit.wall_us"
       "\"region\":{\"distinct\":[1-9]")
  if(NOT top_out MATCHES "${needle}")
    stop_daemon()
    message(FATAL_ERROR "panorama_top json lacks ${needle}:\n${top_out}")
  endif()
endforeach()
# The human frame shows every table's bytes, the region table's included.
execute_process(
  COMMAND "${TOP}" "${SOCK}" --once --timeout-ms=5000
  RESULT_VARIABLE code OUTPUT_VARIABLE top_out ERROR_VARIABLE err)
if(NOT code EQUAL 0 OR NOT top_out MATCHES "atom [0-9.]+ KB / region [0-9.]+ KB")
  stop_daemon()
  message(FATAL_ERROR "panorama_top --once lacks the region table (${code}): ${top_out}${err}")
endif()

# Telemetry flags are daemon-only: without --daemon the driver refuses
# with a usage error instead of silently ignoring them.
execute_process(
  COMMAND "${DRIVER}" "${SRC}" --slow-ms=10
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(NOT code EQUAL 2)
  stop_daemon()
  message(FATAL_ERROR "--slow-ms without --daemon should exit 2, got ${code}")
endif()

# Shutdown: the daemon acknowledges, exits, and unlinks its socket.
execute_process(
  COMMAND "${CLIENT}" "${SOCK}" shutdown
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "client shutdown failed (${code}): ${err}")
endif()
expect_socket_gone()

# The query tier is a process setting the daemon's owner picks once:
# --no-prefilter turns it off for every session the daemon serves, so the
# report is unchanged and the registry records no prefilter attempt.
start_daemon(--no-prefilter)
execute_process(
  COMMAND "${CLIENT}" "${SOCK}" submit "${SRC}" "--name=${SRC}"
  RESULT_VARIABLE code OUTPUT_VARIABLE fm_only_out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  stop_daemon()
  message(FATAL_ERROR "--no-prefilter daemon submit failed (${code}): ${err}")
endif()
if(NOT fm_only_out STREQUAL batch_out)
  stop_daemon()
  message(FATAL_ERROR "--no-prefilter daemon report diverges:\n${fm_only_out}\n-- vs --\n${batch_out}")
endif()
execute_process(
  COMMAND "${CLIENT}" "${SOCK}" metrics --timeout-ms=5000
  RESULT_VARIABLE code OUTPUT_VARIABLE metrics_out ERROR_VARIABLE err)
stop_daemon()
if(NOT code EQUAL 0)
  message(FATAL_ERROR "--no-prefilter daemon metrics failed (${code}): ${err}")
endif()
if(NOT metrics_out MATCHES "daemon.op.submit.wall_us")
  message(FATAL_ERROR "--no-prefilter daemon metrics lack the submit histogram:\n${metrics_out}")
endif()
if(metrics_out MATCHES "\"query.prefilter.attempts\": *[1-9]")
  message(FATAL_ERROR "--no-prefilter daemon still ran the prefilter tier:\n${metrics_out}")
endif()
expect_socket_gone()
