# Regression gate for the committed performance trajectory.
#
# Usage (normally via the `check_bench` target):
#   cmake -DCURRENT=<fresh BENCH_ape_speed.json> \
#         -DBASELINE=<committed BENCH_ape_speed.json> \
#         -P bench/check_bench.cmake
#
# Compares the throughput / latency metrics of a fresh bench run against
# the committed baseline and FATAL_ERRORs when any metric regressed by
# more than 20%. Improvements and noise inside the band pass. The same
# script serves every trajectory file (BENCH_ape_speed.json,
# BENCH_spice_kernel.json): metrics absent from either side are skipped,
# so each file is gated only on the metrics it actually records.
# Requires CMake >= 3.19 (string(JSON ...)).

cmake_minimum_required(VERSION 3.19)

if(NOT DEFINED CURRENT OR NOT DEFINED BASELINE)
  message(FATAL_ERROR "check_bench: pass -DCURRENT=<json> and -DBASELINE=<json>")
endif()
foreach(f IN ITEMS "${CURRENT}" "${BASELINE}")
  if(NOT EXISTS "${f}")
    message(FATAL_ERROR "check_bench: missing ${f}")
  endif()
endforeach()

file(READ "${CURRENT}" cur_json)
file(READ "${BASELINE}" base_json)

# Every trajectory file carries a top-level "meta" stamp (machine /
# build identity). A file without it is either unparseable, hand-edited,
# or predates the stamping discipline — comparing against it would be
# meaningless, so fail with a plain diagnosis naming the file instead of
# letting a later string(JSON GET) surface a parse backtrace.
string(JSON _meta ERROR_VARIABLE _meta_err GET "${cur_json}" meta)
if(_meta_err)
  message(FATAL_ERROR
    "check_bench: ${CURRENT} is missing its \"meta\" stamp "
    "(${_meta_err}). Regenerate the file with the bench binary — "
    "trajectory files without the meta block cannot be gated.")
endif()
string(JSON _meta ERROR_VARIABLE _meta_err GET "${base_json}" meta)
if(_meta_err)
  message(FATAL_ERROR
    "check_bench: baseline ${BASELINE} is missing its \"meta\" stamp "
    "(${_meta_err}). Re-commit the baseline from a fresh bench run — "
    "trajectory files without the meta block cannot be gated.")
endif()

set(tolerance 1.20)  # fail only beyond a 20% regression
set(failed 0)

# check_metric(<name> <direction>) where direction is HIGHER_IS_BETTER or
# LOWER_IS_BETTER. Metrics absent from the baseline (older trajectory
# files) are skipped so the gate stays usable across PR generations.
function(check_metric name direction)
  string(JSON base ERROR_VARIABLE base_err GET "${base_json}" ${name})
  string(JSON cur ERROR_VARIABLE cur_err GET "${cur_json}" ${name})
  if(base_err OR cur_err)
    message(STATUS "check_bench: ${name}: skipped (absent)")
    return()
  endif()
  if(base LESS_EQUAL 0)
    message(STATUS "check_bench: ${name}: skipped (degenerate baseline ${base})")
    return()
  endif()
  if(direction STREQUAL "HIGHER_IS_BETTER")
    # regression when cur * tolerance < base
    set(lhs "${cur}")
    set(rhs "${base}")
  else()
    # LOWER_IS_BETTER: regression when cur > base * tolerance
    set(lhs "${base}")
    set(rhs "${cur}")
  endif()
  # Either way the invariant is rhs <= lhs * tolerance. math(EXPR) is
  # integer-only, so both values are converted to micro-units and the
  # 1.2 factor becomes the exact integer comparison 5*rhs > 6*lhs.
  if(lhs LESS_EQUAL 0)
    message(STATUS "check_bench: ${name}: skipped (degenerate value ${lhs})")
    return()
  endif()
  string(REGEX REPLACE "[^0-9.]" "" lhs_clean "${lhs}")
  string(REGEX REPLACE "[^0-9.]" "" rhs_clean "${rhs}")
  # Convert to integer micro-units (6 decimal places).
  foreach(v IN ITEMS lhs rhs)
    set(s "${${v}_clean}")
    string(FIND "${s}" "." dot)
    if(dot EQUAL -1)
      set(int_part "${s}")
      set(frac_part "000000")
    else()
      string(SUBSTRING "${s}" 0 ${dot} int_part)
      math(EXPR fstart "${dot} + 1")
      string(SUBSTRING "${s}" ${fstart} -1 frac_part)
      string(SUBSTRING "${frac_part}000000" 0 6 frac_part)
    endif()
    if(int_part STREQUAL "")
      set(int_part 0)
    endif()
    math(EXPR ${v}_u "${int_part} * 1000000 + ${frac_part}")
  endforeach()
  # Regression iff rhs > lhs * 1.2  (in micro-units: 5*rhs_u > 6*lhs_u).
  math(EXPR lhs_scaled "6 * ${lhs_u}")
  math(EXPR rhs_scaled "5 * ${rhs_u}")
  if(rhs_scaled GREATER lhs_scaled)
    message(SEND_ERROR "check_bench: ${name} regressed >20%: baseline=${base} current=${cur}")
    set(failed 1 PARENT_SCOPE)
  else()
    message(STATUS "check_bench: ${name}: ok (baseline=${base} current=${cur})")
  endif()
endfunction()

# -- BENCH_ape_speed.json metrics ------------------------------------------
check_metric(serial_jobs_per_second HIGHER_IS_BETTER)

# The pooled figure is only a speedup claim when the recording machine
# actually had more than one hardware thread; the bench records that as
# parallel_speedup_valid. On a single-thread machine the pool degenerates
# to serial-with-overhead, so gating pooled throughput would fail PRs for
# hardware reasons — skip it loudly instead of silently passing nonsense.
string(JSON cur_psv ERROR_VARIABLE cur_psv_err GET "${cur_json}" parallel_speedup_valid)
if(NOT cur_psv_err AND (cur_psv STREQUAL "OFF" OR cur_psv STREQUAL "false" OR cur_psv STREQUAL "0"))
  message(WARNING
    "check_bench: \"parallel_speedup_valid\": false in ${CURRENT} — "
    "skipping the pooled_jobs_per_second speedup gate (the run had a "
    "single hardware thread, so serial-vs-pooled is not a speedup claim)")
else()
  check_metric(pooled_jobs_per_second HIGHER_IS_BETTER)
endif()

check_metric(estimate_path_us LOWER_IS_BETTER)

# The mixed-batch pruning win (DESIGN.md §14): provably-infeasible specs
# must keep failing pre-solve instead of annealing, so the with-prove run
# stays decisively faster. Relative gate like any throughput metric.
check_metric(prove_pruning_speedup HIGHER_IS_BETTER)

# Absolute gate: the prove gate's cost on an *all-feasible* batch, in
# basis points of the bare wall time. The acceptance bound is 5% (500 bp)
# of wall clock; a relative-to-baseline band is meaningless for a
# near-zero percentage, so this one is absolute and only checked on the
# fresh run.
string(JSON cur_ovh ERROR_VARIABLE cur_ovh_err GET "${cur_json}" prove_overhead_bp)
if(cur_ovh_err)
  message(STATUS "check_bench: prove_overhead_bp: skipped (absent)")
elseif(cur_ovh GREATER 500)
  message(SEND_ERROR
    "check_bench: prove gate cost ${cur_ovh} bp of wall time on the "
    "all-feasible batch (bound: 500 bp = 5%)")
  set(failed 1)
else()
  message(STATUS "check_bench: prove_overhead_bp: ok (${cur_ovh} bp <= 500 bp)")
endif()

# Absolute gate: the numerical-health layer's Auto-mode cost on the
# healthy headline opamp DC solve (DESIGN.md section 15), in basis points
# of the health-off solve time. On a well-conditioned system Auto only
# tracks the in-loop pivot min/max, so the bound is tight: 2% (200 bp).
# Like prove_overhead_bp this is absolute and checked on the fresh run.
string(JSON cur_hlt ERROR_VARIABLE cur_hlt_err GET "${cur_json}" health_overhead_bp)
if(cur_hlt_err)
  message(STATUS "check_bench: health_overhead_bp: skipped (absent)")
elseif(cur_hlt GREATER 200)
  message(SEND_ERROR
    "check_bench: numerical-health layer cost ${cur_hlt} bp of the "
    "headline opamp DC-solve time (bound: 200 bp = 2%)")
  set(failed 1)
else()
  message(STATUS "check_bench: health_overhead_bp: ok (${cur_hlt} bp <= 200 bp)")
endif()

# Absolute gates: the same Auto-vs-off A/B on the headline opamp's
# open-loop AC sweep and unity-step transient. A tripped AC pivot proxy
# only arms a per-solve residual check (before that, the Hager estimate
# plus refinement on every point read ~15,700 bp). These arms run for
# milliseconds and a shared host adds noise, so each bound is 3x the
# spread of seven fresh runs on a shared 4-core Xeon, GCC 12,
# RelWithDebInfo (AC 0..1433 bp, transient 0..997 bp), rounded up.
foreach(arm IN ITEMS "ac;4500" "tran;3000")
  list(GET arm 0 name)
  list(GET arm 1 bound)
  string(JSON cur ERROR_VARIABLE cur_err GET "${cur_json}" health_overhead_${name}_bp)
  if(cur_err)
    message(STATUS "check_bench: health_overhead_${name}_bp: skipped (absent)")
  elseif(cur GREATER bound)
    message(SEND_ERROR
      "check_bench: numerical-health layer cost ${cur} bp of the headline "
      "opamp ${name} time (bound: ${bound} bp)")
    set(failed 1)
  else()
    message(STATUS "check_bench: health_overhead_${name}_bp: ok (${cur} bp <= ${bound} bp)")
  endif()
endforeach()

# -- BENCH_spice_kernel.json metrics (dense AND sparse LU paths) -----------
check_metric(dense_n64_ns LOWER_IS_BETTER)
check_metric(sparse_n64_ns LOWER_IS_BETTER)
check_metric(sparse_n256_ns LOWER_IS_BETTER)

if(failed)
  message(FATAL_ERROR "check_bench: performance regression detected")
endif()
message(STATUS "check_bench: all metrics within the 20% band")
