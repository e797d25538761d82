// Package donorsense reproduces "Characterizing Organ Donation Awareness
// from Social Media" (Pacheco, Pinheiro, Cadeiras, Menezes — ICDE 2017):
// a social sensor that characterizes organ-donation awareness from
// Twitter conversations.
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory); the runnable entry points are:
//
//   - cmd/donorsense — generate / analyze / collect / replay / serve CLI;
//     collect is fault-tolerant (stall detection, jittered backoff,
//     rate-limit schedule) and can checkpoint/resume its dataset
//     atomically; replay is the simulated Twitter Stream API server over
//     a generated or archived corpus, whose fault flags inject
//     disconnects, stalls, malformed lines, delete notices, and 420/503
//     responses
//   - cmd/benchtables — regenerate every table and figure of the paper
//   - examples/ — quickstart, statemap, streaming
//
// The root-level benchmarks in bench_test.go time the computation behind
// each table and figure of the paper's evaluation, plus the ablations
// listed in DESIGN.md.
package donorsense
