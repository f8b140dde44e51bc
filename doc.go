// Package slpdas reproduces "Source Location Privacy-Aware Data
// Aggregation Scheduling for Wireless Sensor Networks" (Kirton, Bradbury,
// Jhumka — ICDCS 2017) as a complete, self-contained Go system:
//
//   - a deterministic discrete-event WSN simulator (TOSSIM substitute)
//     with a unit-disk radio, loss models and a TDMA MAC
//     (internal/des, internal/radio; each node of internal/core runs
//     its own TDMA period);
//   - the paper's guarded-command program model (internal/gcn) running
//     the protectionless DAS protocol (Figure 2) and the 3-phase
//     SLP-aware DAS protocol (Figures 2–4) (internal/core);
//   - the parameterised (R, H, M, s0, D) eavesdropper (internal/attacker)
//     and the VerifySchedule decision procedure, Algorithm 1
//     (internal/verify);
//   - the formal schedule properties of Definitions 1–3
//     (internal/schedule) and the evaluation harness reproducing
//     Figure 5, Table I and the message-overhead claim
//     (internal/experiment);
//   - a campaign engine (internal/campaign) that expands declarative
//     axes — topologies, protocols, search distances, attackers, loss
//     models, collisions — into the full Cartesian job matrix, runs it
//     through one shared worker pool and streams per-cell rows to JSONL
//     or CSV sinks with durable checkpoints; campaigns resume after a
//     kill and shard across processes or machines with byte-identical
//     output, driven from the command line by slpsim campaign (-resume,
//     -shard) and reassembled by slpsim merge.
//
// This package exports nothing. The paper's figures and tables come from
// cmd/slpsim (fig5a, fig5b, table1, overhead, sweep, run, topo, verify),
// and so do campaigns (campaign, merge). The package examples in
// example_test.go show library use and pin every line they print; the
// golden tests beside them (testdata/*.golden) pin Figure 5 and campaign
// output byte for byte. DESIGN.md maps every paper artefact to the module
// implementing it and EXPERIMENTS.md records reproduced-versus-published
// numbers with the commands that regenerate them.
package slpdas
