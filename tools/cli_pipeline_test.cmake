# Drives the CLI through a full generate -> describe -> bounds -> run
# pipeline and fails on any nonzero exit.
function(run_step)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code
                  WORKING_DIRECTORY ${WORKDIR})
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "step failed (${code}): ${ARGV}")
  endif()
endfunction()

# Expects the command to exit 2 and print `pattern` on stderr.
function(expect_diagnostic pattern)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code OUTPUT_QUIET
                  ERROR_VARIABLE err WORKING_DIRECTORY ${WORKDIR})
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "expected exit 2 for: ${ARGN} (got ${code})")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR
            "expected '${pattern}' on stderr for: ${ARGN}\ngot: ${err}")
  endif()
endfunction()

# Pins a written file's bytes by their SHA-256.
function(expect_sha256 path digest)
  file(SHA256 ${path} actual)
  if(NOT actual STREQUAL digest)
    message(FATAL_ERROR "${path}: sha256 ${actual}, expected ${digest}")
  endif()
endfunction()

set(INST ${WORKDIR}/cli_smoke.inst)
run_step(${CLI} gen saturated 8 4 3 11 ${INST})
run_step(${CLI} describe ${INST} 8)
run_step(${CLI} bounds ${INST} 8)
run_step(${CLI} run ${INST} 8 fifo/first-ready --render 10)
run_step(${CLI} run ${INST} 8 alg-a/general --svg ${WORKDIR}/cli_smoke.svg
         --trace ${WORKDIR}/cli_smoke.trace
         --timeseries ${WORKDIR}/cli_smoke.csv)
run_step(${CLI} adversary 4 6 ${WORKDIR}/cli_adv.inst)
run_step(${CLI} run ${WORKDIR}/cli_adv.inst 4 work-stealing)
foreach(artifact cli_smoke.svg cli_smoke.trace cli_smoke.csv)
  if(NOT EXISTS ${WORKDIR}/${artifact})
    message(FATAL_ERROR "missing artifact ${artifact}")
  endif()
endforeach()
expect_sha256(${WORKDIR}/cli_smoke.trace
              010f8697590be39bc4f9307dbbf3a88b85caf947bc04204a0100b562fa43eee6)

# Registry surface: list-policies must print every canonical name, and
# `run --policy <name>` accepts canonical names ONLY — old spellings
# exit 2 as unknown policies (checked below).
execute_process(COMMAND ${CLI} list-policies RESULT_VARIABLE code
                OUTPUT_VARIABLE listing WORKING_DIRECTORY ${WORKDIR})
if(NOT code EQUAL 0)
  message(FATAL_ERROR "list-policies failed (${code})")
endif()
foreach(name fifo/first-ready fifo/random list-greedy round-robin-equi
        work-stealing remaining-work/smallest global-lpf alg-a/general
        alg-a/semi-batched)
  if(NOT listing MATCHES "${name}")
    message(FATAL_ERROR "list-policies is missing '${name}'")
  endif()
endforeach()
run_step(${CLI} run ${INST} 8 --policy fifo/first-ready --render 4)
run_step(${CLI} run ${INST} 8 --policy remaining-work/smallest)
execute_process(COMMAND ${CLI} run ${INST} 8 --policy no-such-policy
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET
                WORKING_DIRECTORY ${WORKDIR})
if(code EQUAL 0)
  message(FATAL_ERROR "unknown --policy name must fail, got exit 0")
endif()

# Subcommand surface: list-policies is the only spelling; the old
# subcommand spellings are unknown commands and exit 2.
foreach(legacy policies --list-policies)
  expect_diagnostic("unknown command '${legacy}'" ${CLI} ${legacy})
endforeach()

# Old policy spellings are unknown policies and exit 2, for every driver
# that takes a policy (run, sweep, trace).
expect_diagnostic("unknown policy 'fifo'" ${CLI} run ${INST} 8 fifo)
expect_diagnostic("unknown policy 'srpt'"
                  ${CLI} run ${INST} 8 --policy srpt)
expect_diagnostic("unknown policy 'alg-a'" ${CLI} run ${INST} 8 alg-a)
expect_diagnostic("unknown policy 'fifo-random'"
                  ${CLI} sweep ${INST} fifo-random --m 2 --seeds 1)
expect_diagnostic("unknown policy 'equi'" ${CLI} trace ${INST} 8 equi)
expect_diagnostic("unknown policy 'fifo-lpf'"
                  ${CLI} run ${INST} 8 fifo-lpf)
expect_diagnostic("unknown policy 'alg-a-semibatched'"
                  ${CLI} run ${INST} 8 alg-a-semibatched)

# Unknown subcommands fail loudly with a nonzero exit.
execute_process(COMMAND ${CLI} frobnicate RESULT_VARIABLE code
                OUTPUT_QUIET ERROR_VARIABLE unknown_err
                WORKING_DIRECTORY ${WORKDIR})
if(code EQUAL 0)
  message(FATAL_ERROR "unknown subcommand must fail, got exit 0")
endif()
if(NOT unknown_err MATCHES "unknown command 'frobnicate'")
  message(FATAL_ERROR "unknown subcommand must name itself on stderr")
endif()

# Observability artifacts: run --metrics/--manifest/--metrics-csv, the
# trace subcommand (byte-identical to run --trace), and sweep aggregates.
run_step(${CLI} run ${INST} 8 fifo/first-ready --metrics ${WORKDIR}/cli_metrics.json
         --metrics-csv ${WORKDIR}/cli_metrics.csv
         --manifest ${WORKDIR}/cli_manifest.json
         --trace ${WORKDIR}/cli_run.trace)
run_step(${CLI} trace ${INST} 8 fifo/first-ready --out ${WORKDIR}/cli_sub.trace)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/cli_run.trace ${WORKDIR}/cli_sub.trace
                RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "`trace` output differs from `run --trace`")
endif()
expect_sha256(${WORKDIR}/cli_run.trace
              5b7d4be446fce2c03d43fc949d847efd2ea6855a3ea1d181e79b661cbef6a312)
run_step(${CLI} sweep ${INST} fifo/first-ready --m 2,8 --seeds 2 --workers 1
         --metrics ${WORKDIR}/cli_sweep.json --csv ${WORKDIR}/cli_sweep.csv)
foreach(artifact cli_metrics.json cli_metrics.csv cli_manifest.json
        cli_sweep.json cli_sweep.csv)
  if(NOT EXISTS ${WORKDIR}/${artifact})
    message(FATAL_ERROR "missing artifact ${artifact}")
  endif()
endforeach()
file(READ ${WORKDIR}/cli_metrics.json metrics_json)
foreach(key schema_version manifest counters gauges histograms series
        engine.idle_processor_slots flow.slots instance_hash)
  if(NOT metrics_json MATCHES "${key}")
    message(FATAL_ERROR "metrics JSON is missing '${key}'")
  endif()
endforeach()

# Optional deep validation against the checked-in schema (skipped when no
# python3 is on PATH; CI always has one).
find_program(PYTHON3 python3)
if(PYTHON3 AND DEFINED SCHEMA_CHECK)
  run_step(${PYTHON3} ${SCHEMA_CHECK} ${WORKDIR}/cli_metrics.json
           ${WORKDIR}/cli_sweep.json ${WORKDIR}/cli_manifest.json)
endif()

# ---- malformed input: per-line diagnostics + exit 2, never an abort ----

file(WRITE ${WORKDIR}/cli_bad.inst
     "otsched-instance-v1\njob 0 3\n0 1\n0 7\nend\n")
expect_diagnostic("instance line 4.*outside the job's 3 nodes"
                  ${CLI} describe ${WORKDIR}/cli_bad.inst)
expect_diagnostic("instance line" ${CLI} bounds ${WORKDIR}/cli_bad.inst 4)
expect_diagnostic("instance line" ${CLI} run ${WORKDIR}/cli_bad.inst 4 fifo/first-ready)
expect_diagnostic("instance line" ${CLI} sweep ${WORKDIR}/cli_bad.inst fifo/first-ready)
expect_diagnostic("instance line" ${CLI} trace ${WORKDIR}/cli_bad.inst 4 fifo/first-ready)
# A job whose edges close a cycle is refused at load, naming the job's
# header line, instead of aborting in the DAG metrics.
file(WRITE ${WORKDIR}/cli_cyclic.inst
     "otsched-instance-v1\njob 0 3\n0 1\n1 2\n2 1\nend\n")
set(CYCLIC "instance line 6: the job started at line 2 has a directed cycle")
expect_diagnostic("${CYCLIC}" ${CLI} run ${WORKDIR}/cli_cyclic.inst 2 fifo/first-ready)
expect_diagnostic("${CYCLIC}" ${CLI} describe ${WORKDIR}/cli_cyclic.inst)
expect_diagnostic("${CYCLIC}" ${CLI} bounds ${WORKDIR}/cli_cyclic.inst 2)
expect_diagnostic("${CYCLIC}" ${CLI} sweep ${WORKDIR}/cli_cyclic.inst fifo/first-ready)
expect_diagnostic("${CYCLIC}" ${CLI} trace ${WORKDIR}/cli_cyclic.inst 2 fifo/first-ready)
file(WRITE ${WORKDIR}/cli_bad_magic.inst "not-an-instance\n")
expect_diagnostic("bad magic" ${CLI} describe ${WORKDIR}/cli_bad_magic.inst)
expect_diagnostic("cannot open" ${CLI} describe ${WORKDIR}/no_such.inst)

file(WRITE ${WORKDIR}/cli_bad_budget.csv "slot,capacity\n3,2\n2,1\n")
expect_diagnostic("budget csv line 3.*strictly after"
                  ${CLI} run ${INST} 8 fifo/first-ready
                  --faults-trace ${WORKDIR}/cli_bad_budget.csv)
expect_diagnostic("unknown fault model"
                  ${CLI} run ${INST} 8 fifo/first-ready --faults meteor-strike)
expect_diagnostic("want a number in .0, 0.9."
                  ${CLI} run ${INST} 8 fifo/first-ready --faults random-blip:1:0.95)
expect_diagnostic("fault model 'none' takes no rate, got '0.5'"
                  ${CLI} run ${INST} 8 fifo/first-ready --faults none:1:0.5)

# ---- fault injection surface ----

run_step(${CLI} run ${INST} 8 fifo/first-ready --faults random-blip:7:0.3
         --metrics ${WORKDIR}/cli_faulted_metrics.json)
file(READ ${WORKDIR}/cli_faulted_metrics.json faulted_json)
foreach(key faults random-blip:7:0.3 faults.faulted_slots
        faults.capacity_shortfall)
  if(NOT faulted_json MATCHES "${key}")
    message(FATAL_ERROR "faulted metrics JSON is missing '${key}'")
  endif()
endforeach()

# Freeze a model into a CSV, inspect it, and replay it as a trace: the
# frozen trace must drive a run exactly like any other budget CSV.
run_step(${CLI} faults emit burst-outage:3:0.5 8 64
         ${WORKDIR}/cli_budget.csv)
run_step(${CLI} faults inspect ${WORKDIR}/cli_budget.csv 8)
run_step(${CLI} run ${INST} 8 fifo/first-ready --faults-trace ${WORKDIR}/cli_budget.csv)

# Window planners opt out of fluctuating capacity: a clean diagnostic,
# not an engine CHECK-abort.
expect_diagnostic("does not support fluctuating capacity"
                  ${CLI} run ${INST} 8 alg-a/general
                  --faults random-blip:1:0.3)

# ---- job-side faults & checkpointing surface ----

# The describe-style listing names every crash model and checkpoint
# policy.
execute_process(COMMAND ${CLI} list-job-faults RESULT_VARIABLE code
                OUTPUT_VARIABLE job_fault_listing)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "list-job-faults failed (${code})")
endif()
foreach(name random-crash periodic-crash adversarial-loss on-completion
        every-slots every-subjobs)
  if(NOT job_fault_listing MATCHES "${name}")
    message(FATAL_ERROR "list-job-faults is missing '${name}'")
  endif()
endforeach()

# A faulted run defaults to flow-only recording, reports the rollback
# line, stamps the model into manifest and metrics, and traces every
# execution.
run_step(${CLI} run ${INST} 8 fifo/first-ready
         --job-faults random-crash:7:0.1 --checkpoint-policy every-slots:4
         --metrics ${WORKDIR}/cli_job_faulted_metrics.json
         --trace ${WORKDIR}/cli_job_faulted.trace)
# A re-executed subjob appears once per execution: 120 exec lines, work
# 96 plus 24 wasted slots.
expect_sha256(${WORKDIR}/cli_job_faulted.trace
              3a818d759f5e2164c141e182ff24d1f514cd36768a4865e7f847b4c018c50f66)
file(READ ${WORKDIR}/cli_job_faulted_metrics.json job_faulted_json)
foreach(key job_faults random-crash:7:0.1 checkpoint_policy every-slots:4
        faults.rollbacks faults.checkpoints work.wasted_slots
        work.committed_frontier)
  if(NOT job_faulted_json MATCHES "${key}")
    message(FATAL_ERROR "job-faulted metrics JSON is missing '${key}'")
  endif()
endforeach()

# A fault-free run must NOT carry the conditional manifest keys.
run_step(${CLI} run ${INST} 8 fifo/first-ready
         --metrics ${WORKDIR}/cli_healthy_metrics.json)
file(READ ${WORKDIR}/cli_healthy_metrics.json healthy_json)
if(healthy_json MATCHES "job_faults")
  message(FATAL_ERROR "healthy metrics JSON leaked a job_faults key")
endif()

# Per-token parse diagnostics, each exit 2.
expect_diagnostic("unknown job-fault model"
                  ${CLI} run ${INST} 8 fifo/first-ready --job-faults bogus)
expect_diagnostic("want a number in .0, 0.9."
                  ${CLI} run ${INST} 8 fifo/first-ready
                  --job-faults random-crash:1:0.95)
expect_diagnostic("malformed checkpoint interval"
                  ${CLI} run ${INST} 8 fifo/first-ready
                  --job-faults random-crash --checkpoint-policy every-slots:0)
expect_diagnostic("takes no interval"
                  ${CLI} run ${INST} 8 fifo/first-ready
                  --job-faults random-crash
                  --checkpoint-policy on-completion:3)

# Gating diagnostics: an orphaned checkpoint policy, the flow-only
# requirement, the schedule-walking renderers, and a policy whose
# internal queues cannot survive a rollback.
expect_diagnostic("needs an active job-fault model"
                  ${CLI} run ${INST} 8 fifo/first-ready
                  --checkpoint-policy every-slots:4)
expect_diagnostic("require --record flow"
                  ${CLI} run ${INST} 8 fifo/first-ready
                  --job-faults random-crash --record full)
expect_diagnostic("incompatible with --job-faults"
                  ${CLI} run ${INST} 8 fifo/first-ready
                  --job-faults random-crash --render 10)
# The renderers read the measured run's own schedule, which a flow-only
# run does not keep.
expect_diagnostic("incompatible with --job-faults and --record flow"
                  ${CLI} run ${INST} 8 fifo/first-ready --record flow
                  --svg ${WORKDIR}/cli_flow.svg)
expect_diagnostic("does not support job faults"
                  ${CLI} run ${INST} 8 work-stealing
                  --job-faults random-crash)
expect_diagnostic("does not support job faults"
                  ${CLI} sweep ${INST} work-stealing
                  --job-faults random-crash)

# ---- crash-tolerant sweep checkpointing ----

# The gate: a fresh sweep, a checkpointed sweep, and a crash-interrupted
# sweep resumed from a truncated manifest must print byte-identical
# tables.
execute_process(COMMAND ${CLI} sweep ${INST} fifo/first-ready --m 2,4 --seeds 2
                RESULT_VARIABLE code OUTPUT_VARIABLE sweep_fresh
                WORKING_DIRECTORY ${WORKDIR})
if(NOT code EQUAL 0)
  message(FATAL_ERROR "fresh sweep failed (${code})")
endif()
execute_process(COMMAND ${CLI} sweep ${INST} fifo/first-ready --m 2,4 --seeds 2
                --checkpoint ${WORKDIR}/cli_sweep.ckpt
                RESULT_VARIABLE code OUTPUT_VARIABLE sweep_ckpt
                WORKING_DIRECTORY ${WORKDIR})
if(NOT code EQUAL 0)
  message(FATAL_ERROR "checkpointed sweep failed (${code})")
endif()
if(NOT sweep_ckpt STREQUAL sweep_fresh)
  message(FATAL_ERROR "checkpointed sweep output differs from fresh sweep")
endif()
if(NOT EXISTS ${WORKDIR}/cli_sweep.ckpt)
  message(FATAL_ERROR "sweep --checkpoint wrote no manifest")
endif()

# Simulate a mid-run SIGKILL: keep the header and the first two completed
# cells, drop the rest, then --resume.  The resumed run reuses the two
# surviving cells, recomputes the other two, and must print the same
# table byte for byte.
file(STRINGS ${WORKDIR}/cli_sweep.ckpt ckpt_lines)
list(SUBLIST ckpt_lines 0 9 ckpt_head)
string(JOIN "\n" ckpt_truncated ${ckpt_head})
file(WRITE ${WORKDIR}/cli_sweep_cut.ckpt "${ckpt_truncated}\n")
execute_process(COMMAND ${CLI} sweep ${INST} fifo/first-ready --m 2,4 --seeds 2
                --checkpoint ${WORKDIR}/cli_sweep_cut.ckpt --resume
                RESULT_VARIABLE code OUTPUT_VARIABLE sweep_resumed
                WORKING_DIRECTORY ${WORKDIR})
if(NOT code EQUAL 0)
  message(FATAL_ERROR "resumed sweep failed (${code})")
endif()
if(NOT sweep_resumed STREQUAL sweep_fresh)
  message(FATAL_ERROR "resumed sweep output differs from fresh sweep")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/cli_sweep.ckpt ${WORKDIR}/cli_sweep_cut.ckpt
                RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "resumed checkpoint manifest differs from the "
                      "uninterrupted one")
endif()

# The instance fingerprint is the FNV-1a hash of the instance's text, and
# a checkpoint only resumes under the same fingerprint.  Pinned as
# literals, so a change to the text writer cannot silently orphan the
# checkpoints of existing sweep tables.
function(expect_instance_hash inst m hash)
  run_step(${CLI} run ${inst} ${m} fifo/first-ready --record flow
           --manifest ${WORKDIR}/cli_fingerprint.json)
  file(READ ${WORKDIR}/cli_fingerprint.json fingerprint_manifest)
  if(NOT fingerprint_manifest MATCHES "\"instance_hash\": \"${hash}\"")
    message(FATAL_ERROR "instance_hash of ${inst} is not ${hash}:\n"
                        "${fingerprint_manifest}")
  endif()
endfunction()
expect_instance_hash(${EXAMPLES_DIR}/general_dag.inst 2 131bc40c7ec83dc6)
run_step(${CLI} gen trees 200 16 2 7 ${WORKDIR}/cli_fingerprint.inst)
expect_instance_hash(${WORKDIR}/cli_fingerprint.inst 8 d19b2be6b338d19e)

# A CRLF file's name loses its line's carriage return: the manifest names
# the instance "demo", not "demo\r".
file(WRITE ${WORKDIR}/cli_crlf.inst
     "otsched-instance-v1\r\nname demo\r\njob 0 2\r\n0 1\r\nend\r\n")
run_step(${CLI} run ${WORKDIR}/cli_crlf.inst 2 fifo/first-ready --record flow
         --manifest ${WORKDIR}/cli_crlf.json)
file(READ ${WORKDIR}/cli_crlf.json crlf_manifest)
if(NOT crlf_manifest MATCHES "\"instance\": \"demo\"")
  message(FATAL_ERROR "CRLF instance is not named demo:\n${crlf_manifest}")
endif()

# ---- certified lower bounds (--certify) ----

# `bounds --certify` on the checked-in GENERAL DAG example (not an
# out-forest): both certificates must verify and the manifest must carry
# the certified bound.
execute_process(COMMAND ${CLI} bounds ${EXAMPLES_DIR}/general_dag.inst 2
                --certify --manifest ${WORKDIR}/cli_cert_manifest.json
                RESULT_VARIABLE code OUTPUT_VARIABLE cert_out
                WORKING_DIRECTORY ${WORKDIR})
if(NOT code EQUAL 0)
  message(FATAL_ERROR "bounds --certify failed (${code})")
endif()
foreach(pattern "dual-fit certificate" "max-flow certificate"
        "verified" "best component")
  if(NOT cert_out MATCHES "${pattern}")
    message(FATAL_ERROR "bounds --certify output is missing '${pattern}'")
  endif()
endforeach()
if(cert_out MATCHES "VERIFY FAILED")
  message(FATAL_ERROR "bounds --certify reported a failed verification")
endif()
file(READ ${WORKDIR}/cli_cert_manifest.json cert_manifest)
foreach(key certified_bound certificate_method max-flow)
  if(NOT cert_manifest MATCHES "${key}")
    message(FATAL_ERROR "certificate manifest is missing '${key}'")
  endif()
endforeach()

# `run --certify`: the manifest and metrics gain the certified_bound /
# ratio_vs_certificate fields and still validate against the schema.
run_step(${CLI} run ${EXAMPLES_DIR}/general_dag.inst 2 list-greedy --certify
         --manifest ${WORKDIR}/cli_cert_run_manifest.json
         --metrics ${WORKDIR}/cli_cert_run_metrics.json)
file(READ ${WORKDIR}/cli_cert_run_manifest.json cert_run_manifest)
foreach(key certified_bound certificate_method ratio_vs_certificate)
  if(NOT cert_run_manifest MATCHES "${key}")
    message(FATAL_ERROR "run --certify manifest is missing '${key}'")
  endif()
endforeach()
if(PYTHON3 AND DEFINED SCHEMA_CHECK)
  run_step(${PYTHON3} ${SCHEMA_CHECK} ${WORKDIR}/cli_cert_manifest.json
           ${WORKDIR}/cli_cert_run_manifest.json
           ${WORKDIR}/cli_cert_run_metrics.json)
endif()

# Certified bounds under an explicit budget trace (frozen above).
run_step(${CLI} bounds ${INST} 8 --certify
         --faults-trace ${WORKDIR}/cli_budget.csv)
run_step(${CLI} run ${INST} 8 fifo/first-ready --certify
         --faults-trace ${WORKDIR}/cli_budget.csv)

# Stochastic faults have no explicit budget stream to certify against:
# a diagnostic, not an abort.
expect_diagnostic("needs explicit per-slot budgets"
                  ${CLI} run ${INST} 8 fifo/first-ready --certify
                  --faults random-blip:1:0.3)
# Non-positive machine counts get a diagnostic too.
expect_diagnostic("m >= 1" ${CLI} bounds ${INST} 0)

# A 1,000-job stream certifies in well under a second: the max-flow
# certificate is one O(N log N) EDF pass plus one witness probe, and the
# dual fit one sweep over the release groups per depth.
run_step(${CLI} gen trees 1000 40 7 1 ${WORKDIR}/cli_trees1000.inst)
execute_process(COMMAND ${CLI} bounds ${WORKDIR}/cli_trees1000.inst 8
                --certify
                RESULT_VARIABLE code OUTPUT_VARIABLE big_cert_out
                WORKING_DIRECTORY ${WORKDIR})
if(NOT code EQUAL 0)
  message(FATAL_ERROR "bounds --certify on 1000 jobs failed (${code})")
endif()
foreach(which dual-fit max-flow)
  if(NOT big_cert_out MATCHES "${which} certificate : [0-9]+ \\(verified\\)")
    message(FATAL_ERROR
            "1000-job ${which} certificate not verified:\n${big_cert_out}")
  endif()
endforeach()

# Two jobs released 2^62 apart on m = 2: m * t overflows int64, which
# the window sweep's __int128 keys absorb, so the dual fit certifies the
# span instead of aborting.
file(WRITE ${WORKDIR}/cli_far_release.inst
     "otsched-instance-v1\njob 0 2\n0 1\nend\n"
     "job 4611686018427387904 2\n0 1\nend\n")
execute_process(COMMAND ${CLI} bounds ${WORKDIR}/cli_far_release.inst 2
                --certify
                RESULT_VARIABLE code OUTPUT_VARIABLE far_cert_out
                WORKING_DIRECTORY ${WORKDIR})
if(NOT code EQUAL 0)
  message(FATAL_ERROR "bounds --certify on far releases failed (${code})")
endif()
foreach(which dual-fit max-flow)
  if(NOT far_cert_out MATCHES "${which} certificate : 2 \\(verified\\)")
    message(FATAL_ERROR
            "far-release ${which} certificate is not 2:\n${far_cert_out}")
  endif()
endforeach()
# Simulating it is another matter: the engines count m * horizon
# processor-slots in int64, so run, sweep and trace refuse an m whose
# auto horizon overflows that count (run printed idle processor-slots
# -2^63 here) and still run m = 1.
set(FAR_OVERFLOW "m = 2 times the auto horizon .* overflows")
expect_diagnostic("run: ${FAR_OVERFLOW}" ${CLI} run
                  ${WORKDIR}/cli_far_release.inst 2 list-greedy --record flow)
expect_diagnostic("sweep: ${FAR_OVERFLOW}" ${CLI} sweep
                  ${WORKDIR}/cli_far_release.inst list-greedy --m 1,2)
expect_diagnostic("trace: ${FAR_OVERFLOW}" ${CLI} trace
                  ${WORKDIR}/cli_far_release.inst 2 list-greedy)
execute_process(COMMAND ${CLI} run ${WORKDIR}/cli_far_release.inst 1
                list-greedy --record flow
                RESULT_VARIABLE code OUTPUT_VARIABLE far_run_out
                WORKING_DIRECTORY ${WORKDIR})
if(NOT code EQUAL 0 OR
   NOT far_run_out MATCHES "idle processor-slots 4611686018427387902\n")
  message(FATAL_ERROR "far-release run on m = 1 failed (${code}):\n"
          "${far_run_out}")
endif()

# Plain bounds on a 10,000-job stream: the heuristic bounds sweep each
# depth row once, so this stays well under a second in a Release build.
run_step(${CLI} gen trees 10000 40 7 1 ${WORKDIR}/cli_trees10000.inst)
execute_process(COMMAND ${CLI} bounds ${WORKDIR}/cli_trees10000.inst 8
                RESULT_VARIABLE code OUTPUT_VARIABLE huge_bounds_out
                WORKING_DIRECTORY ${WORKDIR})
if(NOT code EQUAL 0)
  message(FATAL_ERROR "bounds on 10000 jobs failed (${code})")
endif()
if(NOT huge_bounds_out MATCHES "\\| best +\\| [0-9]+ +\\|")
  message(FATAL_ERROR "10000-job bounds has no best row:\n${huge_bounds_out}")
endif()

# Semi-batched Algorithm A needs an even --opt and every release on its
# /2 grid; run, sweep and trace refuse other values (exit 2) before the
# scheduler is built.  The saturated instance releases on a 3-slot grid.
foreach(bad_opt 3 6)
  expect_diagnostic("semi-batched case needs an even known-opt"
                    ${CLI} run ${INST} 4 alg-a/semi-batched --opt ${bad_opt})
endforeach()
expect_diagnostic("semi-batched case needs an even known-opt"
                  ${CLI} sweep ${INST} alg-a/semi-batched --m 4 --seeds 1
                  --opt 3)
expect_diagnostic("semi-batched case needs an even known-opt"
                  ${CLI} trace ${INST} 4 alg-a/semi-batched --opt 3)

# Algorithm A runs out-forest jobs only, on m processors with alpha = 4
# dividing m.  run, sweep (every m in --m), trace and serve ask the
# registry's precondition gate and exit 2 with its reason before building
# anything; Algorithm A would abort on each of these.
set(GENERAL_DAG ${EXAMPLES_DIR}/general_dag.inst)
set(TREES20 ${WORKDIR}/cli_trees20.inst)
run_step(${CLI} gen trees 20 40 7 1 ${TREES20})
set(NOT_FOREST "policy 'alg-a/general' needs every job to be an out-forest")
set(NOT_DIVIDING
    "policy 'alg-a/general' needs alpha = 4 to divide m \\(Section 5\\), got m = 6")
expect_diagnostic("${NOT_FOREST}" ${CLI} run ${GENERAL_DAG} 4 alg-a/general)
expect_diagnostic("${NOT_DIVIDING}" ${CLI} run ${TREES20} 6 alg-a/general)
expect_diagnostic("${NOT_DIVIDING}"
                  ${CLI} sweep ${TREES20} alg-a/general --m 4,6 --seeds 1)
expect_diagnostic("${NOT_DIVIDING}" ${CLI} trace ${TREES20} 6 alg-a/general)
expect_diagnostic("policy 'alg-a/semi-batched' needs every job to be an"
                  ${CLI} run ${GENERAL_DAG} 8 alg-a/semi-batched --opt 2)
execute_process(COMMAND ${CLI} serve --m 6 RESULT_VARIABLE code
                OUTPUT_VARIABLE serve_out ERROR_VARIABLE serve_err
                TIMEOUT 20 WORKING_DIRECTORY ${WORKDIR})
if(NOT code EQUAL 2 OR serve_out MATCHES "listening on" OR
   NOT serve_err MATCHES "${NOT_DIVIDING}")
  message(FATAL_ERROR "serve --m 6 must exit 2 before listening "
                      "(${code}):\n${serve_out}${serve_err}")
endif()

# --opt claims OPT.  A value below the instance's lower bound (67 at
# m = 4) is refused before the run, and a run that beats the claim
# refutes it; both exit 2 with one line instead of a certification abort.
expect_diagnostic("--opt 1 is below the lower bound 67 on m = 4, so it cannot be OPT"
                  ${CLI} run ${TREES20} 4 fifo/first-ready --opt 1)
foreach(command run trace)
  expect_diagnostic("${command}: the schedule's max flow 77 beats --opt 100, so 100 is not OPT"
                    ${CLI} ${command} ${TREES20} 4 fifo/first-ready --opt 100)
endforeach()
# sweep checks every cell: at m = 3 the run (137) does not beat 135, at
# m = 4 it does.
expect_diagnostic("sweep: the schedule's max flow 77 beats --opt 135, so 135 is not OPT"
                  ${CLI} sweep ${TREES20} fifo/first-ready --m 3,4 --seeds 1 --opt 135)

# ---- serve durability flags (docs/SERVING.md) ----

# --help documents the daemon without starting it.
execute_process(COMMAND ${CLI} serve --help RESULT_VARIABLE code
                OUTPUT_VARIABLE serve_help WORKING_DIRECTORY ${WORKDIR})
if(NOT code EQUAL 0)
  message(FATAL_ERROR "serve --help failed (${code})")
endif()
foreach(flag --journal --recover --journal-rotate --snapshot-every
        --max-line --max-conns --max-pending --idle-timeout-ms)
  if(NOT serve_help MATCHES "${flag}")
    message(FATAL_ERROR "serve --help is missing '${flag}'")
  endif()
endforeach()

# Malformed durability flags: per-token diagnostics, each exit 2,
# before any socket is bound.
expect_diagnostic("serve: --journal needs a path" ${CLI} serve --journal)
expect_diagnostic("serve: --recover needs a path" ${CLI} serve --recover)
expect_diagnostic("needs a nonnegative integer, got 'nope'"
                  ${CLI} serve --snapshot-every nope)
expect_diagnostic("needs a nonnegative integer"
                  ${CLI} serve --max-pending -3)
expect_diagnostic("--max-line needs at least 1" ${CLI} serve --max-line 0)
expect_diagnostic("cannot open journal"
                  ${CLI} serve --recover ${WORKDIR}/no_such.journal)
expect_diagnostic("must name the same file as --recover"
                  ${CLI} serve --journal ${WORKDIR}/a.ndjson
                  --recover ${WORKDIR}/b.ndjson)
# A stateful policy cannot warm-start from snapshots: rotation refused.
expect_diagnostic("snapshot" ${CLI} serve --policy fifo/random
                  --journal ${WORKDIR}/cli_serve.ndjson --journal-rotate)

# ---- one argument parser: every bad argument exits 2, naming itself ----

# A misspelled flag must not silently run a different configuration, and
# a bad number must not reach a library CHECK (an abort, exit 134).
expect_diagnostic("run: unknown flag '--job-fault'"
                  ${CLI} run ${INST} 8 fifo/first-ready
                  --job-fault random-crash:1:0.5)
expect_diagnostic("sweep: --m needs .*, got '2,x,8'"
                  ${CLI} sweep ${INST} fifo/first-ready --m 2,x,8)
expect_diagnostic("run: m needs .*m >= 1, got '0'"
                  ${CLI} run ${INST} 0 fifo/first-ready)
expect_diagnostic("sweep: --m needs .*, got '0'"
                  ${CLI} sweep ${INST} fifo/first-ready --m 0)
expect_diagnostic("sweep: --workers needs a nonnegative integer, got '-1'"
                  ${CLI} sweep ${INST} fifo/first-ready --workers -1)
expect_diagnostic("describe: m needs .*m >= 1, got '0'"
                  ${CLI} describe ${INST} 0)
expect_diagnostic("adversary: m needs .*m >= 2, got '1'"
                  ${CLI} adversary 1 4 ${WORKDIR}/cli_bad_adv.inst)
expect_diagnostic("gen trees: size needs at least 1, got '0'"
                  ${CLI} gen trees 5 0 2 7 ${WORKDIR}/cli_bad_gen.inst)
# The one-token --record=VALUE spelling is not a flag.
expect_diagnostic("run: unknown flag '--record=flow'"
                  ${CLI} run ${INST} 8 fifo/first-ready --record=flow)
# trace always streams a flow-only run, so it takes no --record.
expect_diagnostic("trace: unknown flag '--record'"
                  ${CLI} trace ${INST} 8 fifo/first-ready --record full)
# An unknown flag and a flag without its value, per subcommand.
foreach(command run trace)
  expect_diagnostic("${command}: unknown flag '--bogus'"
                    ${CLI} ${command} ${INST} 8 fifo/first-ready --bogus)
endforeach()
expect_diagnostic("run: --seed needs a nonnegative integer"
                  ${CLI} run ${INST} 8 fifo/first-ready --seed)
expect_diagnostic("trace: --out needs a path"
                  ${CLI} trace ${INST} 8 fifo/first-ready --out)
expect_diagnostic("sweep: unknown flag '--bogus'"
                  ${CLI} sweep ${INST} fifo/first-ready --bogus)
expect_diagnostic("sweep: --seeds needs at least 1"
                  ${CLI} sweep ${INST} fifo/first-ready --seeds)
expect_diagnostic("bounds: unknown flag '--bogus'"
                  ${CLI} bounds ${INST} 8 --bogus)
expect_diagnostic("bounds: --manifest needs a path"
                  ${CLI} bounds ${INST} 8 --manifest)
expect_diagnostic("serve: unknown flag '--bogus'" ${CLI} serve --bogus)
expect_diagnostic("serve: --m needs a machine count" ${CLI} serve --m)

# A checkpoint from a DIFFERENT grid must be rejected, not spliced in.
expect_diagnostic("different sweep"
                  ${CLI} sweep ${INST} fifo/first-ready --m 2,8 --seeds 2
                  --checkpoint ${WORKDIR}/cli_sweep.ckpt --resume)
# Flag hygiene: checkpoint cells are flow-only and un-instrumented.
expect_diagnostic("incompatible"
                  ${CLI} sweep ${INST} fifo/first-ready
                  --checkpoint ${WORKDIR}/x.ckpt --metrics ${WORKDIR}/x.json)
expect_diagnostic("requires --checkpoint"
                  ${CLI} sweep ${INST} fifo/first-ready --resume)

# otsched_fuzz parses every number strictly (no sign, no truncation to a
# narrower type) and keeps --replay alone: the repro file carries the
# whole case, so a grid flag next to it would be silently ignored.
expect_diagnostic("--seeds needs an integer >= 1, got '-1'"
                  ${FUZZ} --seeds -1)
expect_diagnostic("--seeds needs an integer >= 1, got '4294967297'"
                  ${FUZZ} --seeds 4294967297)
expect_diagnostic("--machines needs an integer >= 1, got 'x'"
                  ${FUZZ} --machines 2,x)
expect_diagnostic("--machines needs an integer >= 1, got '4294967298'"
                  ${FUZZ} --machines 4294967298)
expect_diagnostic("--workers needs an integer >= 0, got '-1'"
                  ${FUZZ} --workers -1)
expect_diagnostic("--replay takes no other flag"
                  ${FUZZ} --replay ${WORKDIR}/no-such.inst --alpha 8)
