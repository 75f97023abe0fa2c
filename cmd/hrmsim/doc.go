// Command hrmsim is the CLI for the heterogeneous-reliability memory
// reproduction: run error-injection characterization campaigns, profile
// application memory access behaviour, evaluate the HRM design space, and
// regenerate every table and figure of the paper.
//
// Usage:
//
//	hrmsim characterize -app websearch -error hard-1bit -region stack -trials 400
//	hrmsim characterize -app websearch -trials 2000 -target-ci 0.02
//	hrmsim characterize -app kvstore -trials 1000000 -shard 3/8 -journal shards/shard-0003-of-0008.jsonl
//	hrmsim merge -dir shards/
//	hrmsim status -watch shards/
//	hrmsim profile -app websearch -watchpoints 600
//	hrmsim designspace
//	hrmsim plan -target 0.999
//	hrmsim tolerable
//	hrmsim lifetime -protection secded+scrub -errors 200000 -hours 24
//	hrmsim tables [-t fig3] [-trials 400] [-target-ci 0.06]
//
// Campaigns run either a fixed trial count (-trials) or, with
// -target-ci, an adaptive plan: stop as soon as the 90% Wilson CI
// half-width on the crash probability reaches the target, with -trials
// as the hard budget and -min-trials as the guard rail. The plan is
// deterministic and resumable exactly like a fixed campaign,
// but incompatible with -shard (it needs the whole trial
// index space). Under tables, -target-ci applies per campaign cell.
//
// characterize runs a campaign whole or as one shard of a multi-process
// campaign (-shard i/N; with -journal the shard's one file is its
// journal, which ends in a trailer once the run is over). A shard worker
// that dies is run again with the same flags plus -resume on its own
// journal, which re-runs only the trials it had not recorded. merge
// folds the finished journals of a directory into a result
// bit-identical to the single-process run; status renders the fleet
// view of the same journals, live or finished, from any shell (-watch
// to follow). SHARDING.md is the operator contract.
//
// Every subcommand accepts -json, which replaces the rendered text on
// stdout with one machine-readable JSON document under the versioned
// schema documented in OBSERVABILITY.md. The campaign-backed subcommands
// (characterize, tables) also accept -progress, which reports live trial
// completion on stderr.
package main
