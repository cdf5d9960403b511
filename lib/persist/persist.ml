(** Durability layer for the Patricia-trie set server: write-ahead
    logging, checkpoints, and crash recovery.

    PR 4 put the paper's non-blocking trie behind a socket; this library
    makes that server's state survive the process.  The design is the
    classic log-structured pair, adapted to a {e lock-free} structure
    serving live traffic:

    - {!Wal}: a segmented append-only log with CRC32C-framed records and
      leader-based {e group commit} with no log thread — worker domains
      publish acknowledged mutations to a shared queue, and the first
      one to need its records on disk writes everything queued in one
      [write] (and one fsync in sync mode) while the others wait for
      it, so synchronous durability costs one fsync per batch of
      concurrent operations rather than one per operation;
    - {!Checkpoint}: consistent images of a live trie, written
      side-by-side with concurrent inserts/deletes/replaces by pairing
      a WAL-cut stamp with an atomic frozen snapshot of the structure
      (the trie's own snapshot capability — the problem Prokopec et
      al. solve for Ctries, solved here inside the trie and stitched
      to the log by forced, idempotent tail replay);
    - {!Store}: a functor packaging any [CONCURRENT_SET_WITH_REPLACE]
      with open-time recovery (newest valid checkpoint + WAL tail
      replay, torn tails truncated at the first bad CRC, idempotent
      under double replay), the per-window commit {!Store.Make.barrier},
      and
      live checkpointing with segment truncation;
    - {!Crc}: the shared, check-vector-tested CRC-32/CRC-32C
      implementation both file formats validate with;
    - {!Metrics}: fsync-latency and batch-size histograms plus
      byte/record/segment counters, exported through the same live
      scrape endpoint as everything else.

    Fault injection rides along: a commit's leader crosses
    [Chaos.Wal_append], [Chaos.Wal_fsync] and [Chaos.Wal_rotate], so
    chaos policies can widen crash windows exactly like they perturb
    the trie's CAS sites — the crash-recovery fuzzer
    ([test/crash_fuzzer.exe]) drives kills through those windows. *)

module Crc = Crc
module Wal = Wal
module Checkpoint = Checkpoint
module Store = Store
module Metrics = Metrics
