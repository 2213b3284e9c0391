// Package store implements the persistent, versioned configuration
// knowledge store behind the arcsd tuning service. It is the
// production-scale evolution of the paper's single-process history file
// (§III-B, "later executions can use the saved values instead of
// repeating the search process"): a sharded in-memory table (one
// arcs.Table per shard, laid out by context) serving concurrent lookups,
// backed by an append-only write-ahead log with periodic compacted
// snapshots so the knowledge survives restarts and crashes.
//
// Durability model: every accepted Save appends one CRC-framed binary
// record (internal/codec) to the WAL before returning; snapshots use the
// codec's columnar layout. Replay tolerates arbitrary corruption — torn tails from a crash, truncated snapshots, bit flips,
// or garbage bytes — by skipping records whose checksum or encoding does
// not verify; a record carries its own per-key monotonic version, so
// replay order does not matter and a record duplicated across snapshot
// and WAL is idempotent. Snapshots are written to a temporary file,
// fsynced and renamed, so a crash mid-snapshot never loses the previous
// one.
//
// Failure model: the store never takes the daemon down. When the WAL
// keeps failing (full or dead disk), the store switches into a degraded
// memory-only mode — lookups and Saves keep working, persistence stops,
// and the condition is surfaced through Err and Health (and from there
// arcsd's /healthz and /metrics) until an explicit successful Snapshot
// rebuilds the log. See DESIGN.md §10.
package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
)

const (
	// SnapshotBinName and WALName are the file names inside the store
	// directory (exported for chaos and torture tests that truncate or
	// corrupt them deliberately). The WAL holds binary frames only;
	// WALName keeps its historical extension because renaming it would
	// orphan every store written since the binary format landed.
	SnapshotBinName = "snapshot.bin"
	WALName         = "wal.jsonl"

	// legacySnapshotName is the JSON snapshot of stores that predate the
	// binary format. Nothing reads it any more; Open refuses a directory
	// that still holds one rather than coming up silently empty.
	legacySnapshotName = "snapshot.json"

	// NumShards is the fixed in-process shard count, bounding lock
	// contention under concurrent serving. A key's shard is the FNV-1a
	// hash of its context — App, Workload and Region, not the cap — so
	// every cap of one context lives in one shard and a nearest-cap
	// lookup reads only that shard. Exported because the fleet's
	// anti-entropy sweep walks the store shard by shard (ShardEntries)
	// and exchanges per-shard digests — every node computes the same
	// key→shard mapping, so the constant and the mapping are part of the
	// fleet protocol.
	NumShards = 16

	// DefaultSnapshotEvery is the floor of the automatic compaction
	// trigger when Options.SnapshotEvery is zero: at least this many WAL
	// appends separate two automatic compactions.
	DefaultSnapshotEvery = 1024

	// DefaultDegradeAfter is the number of consecutive WAL-append failures
	// after which the store degrades to memory-only serving.
	DefaultDegradeAfter = 3
)

// Entry is one stored record: a tuned configuration, the performance that
// earned it, and a per-key monotonic version (bumped on every accepted
// update, never reused). The record is declared once, as arcs.Entry, for
// every history's table, the WAL, the snapshot and both wire encodings.
type Entry = arcs.Entry

// Options tunes a Store.
type Options struct {
	// SnapshotEvery is the floor of the size-ratio compaction trigger:
	// the WAL is compacted into a snapshot once the records appended
	// since the last snapshot reach max(SnapshotEvery, live entries), so
	// the snapshot bytes written per append stay constant as the table
	// grows and the WAL never holds more than about one table's worth of
	// records. Zero selects DefaultSnapshotEvery; negative disables
	// automatic snapshots (explicit Snapshot still works).
	SnapshotEvery int

	// FS substitutes the filesystem (fault injection, tests); nil selects
	// the real one (OSFS).
	FS FS
}

type shard struct {
	mu      sync.RWMutex
	entries arcs.Table // guarded by mu
}

// Store is a concurrent, persistent arcs.History: exact-key misses can
// be answered with the entry for the closest power cap in the same
// app/workload/region context.
type Store struct {
	dir    string
	fs     FS // immutable after Open
	shards [NumShards]shard

	// live counts the distinct keys held across the shards, bumped under
	// the shard lock where a key is first inserted. Len returns it, and
	// the compaction trigger reads it without walking the shard locks.
	live atomic.Int64

	walMu         sync.Mutex
	wal           File          // guarded by walMu
	walRecords    int           // records appended since the last snapshot; guarded by walMu
	failedAt      int           // walRecords at the last failed automatic compaction, 0 after a success; guarded by walMu
	compactions   uint64        // successful compactions since Open; guarded by walMu
	snapshotEvery int           // immutable after Open
	closed        bool          // guarded by walMu
	appendFails   int           // consecutive WAL-append failures; guarded by walMu
	degraded      bool          // memory-only mode; guarded by walMu
	degradedCause error         // why the store degraded; guarded by walMu
	droppedSaves  uint64        // Saves accepted in memory but not persisted; guarded by walMu
	enc           codec.Encoder // WAL/snapshot record encoder; guarded by walMu
	walBuf        []byte        // reusable append buffer (zero-alloc appends); guarded by walMu

	errMu   sync.Mutex
	lastErr error // guarded by errMu
}

// Open loads (or creates) a store rooted at dir, replaying the snapshot
// and WAL found there. Corrupt or torn records are skipped, never fatal:
// a crash-interrupted WAL must not take the service down. A directory
// still holding a pre-binary snapshot.json is refused: its records are
// in a format nothing reads, and serving without them would be silent
// data loss.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{
		dir:           dir,
		fs:            opts.FS,
		snapshotEvery: opts.SnapshotEvery,
	}
	if s.fs == nil {
		s.fs = OSFS
	}
	if s.snapshotEvery == 0 {
		s.snapshotEvery = DefaultSnapshotEvery
	}
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	if _, err := s.fs.ReadFile(filepath.Join(dir, legacySnapshotName)); err == nil {
		return nil, fmt.Errorf("store: %s holds a pre-binary %s this store cannot read "+
			"(compact it with an older arcsd first, or remove it)", dir, legacySnapshotName)
	}
	s.replaySnapshot()
	s.walRecords = s.replayWAL() //arcslint:ignore guardedby constructor; the store has not escaped yet
	wal, err := s.fs.OpenFile(s.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	s.wal = wal //arcslint:ignore guardedby constructor; the store has not escaped yet
	return s, nil
}

func (s *Store) walPath() string      { return filepath.Join(s.dir, WALName) }
func (s *Store) snapshotPath() string { return filepath.Join(s.dir, SnapshotBinName) }

// FNV-1a, 32 bit, written out so the shard hash walks the key's fields
// in place instead of allocating a joined string.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnvString(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime32
	}
	return h
}

// shard returns the shard of k's context: the FNV-1a hash of App,
// Workload and Region, each followed by a '|'. The cap is left out on
// purpose (see NumShards).
func (s *Store) shard(k arcs.HistoryKey) *shard {
	h := uint32(fnvOffset32)
	for _, f := range [...]string{k.App, k.Workload, k.Region} {
		h = fnvString(h, f)
		h = (h ^ '|') * fnvPrime32
	}
	return &s.shards[h%NumShards]
}

// replaySnapshot loads the compacted columnar snapshot, ignoring a
// missing or undecodable file (the WAL is the source of truth for
// anything newer).
func (s *Store) replaySnapshot() {
	data, err := s.fs.ReadFile(s.snapshotPath())
	if err != nil {
		return
	}
	kind, payload, _, err := codec.Frame(data)
	if err != nil || kind != codec.KindSnapshot {
		return
	}
	var dec codec.Decoder
	list, err := dec.DecodeSnapshot(payload)
	if err != nil {
		return
	}
	for _, e := range list {
		s.applyReplay(e)
	}
}

// replayWAL applies every verifiable WAL frame and returns the count, so
// a store reopened with a fat WAL compacts on schedule: the trigger then
// compares that count with the replayed table. Any byte that
// does not start a verifiable frame is corruption: replay resyncs past
// it byte by byte and reports how many bytes it skipped through Err. An
// incomplete final frame is the crash-interrupted last append — a torn
// tail, dropped silently because nothing can follow it.
func (s *Store) replayWAL() int {
	data, err := s.fs.ReadFile(s.walPath())
	if err != nil {
		return 0
	}
	n, skipped := 0, 0
	var dec codec.Decoder
	var e Entry
	for pos := 0; pos < len(data); {
		if data[pos] != codec.Magic {
			pos++
			skipped++
			continue
		}
		kind, payload, fn, err := codec.Frame(data[pos:])
		switch {
		case err == nil && kind == codec.KindEntry:
			if dec.DecodeEntry(payload, &e) == nil {
				s.applyReplay(e)
				n++
			}
			pos += fn
		case err == nil:
			pos += fn // verified frame of an unexpected kind: skip whole
		case errors.Is(err, codec.ErrTruncated):
			// Torn tail: whole frames are appended under walMu, so an
			// incomplete frame can only be the crash-interrupted last
			// record. Nothing follows it.
			pos = len(data)
		default:
			pos++ // corrupt frame: resync byte by byte
			skipped++
		}
	}
	if skipped > 0 {
		s.setErr(fmt.Errorf("store: replay skipped %d corrupt WAL bytes", skipped))
	}
	return n
}

// Supersedes reports whether e should replace old under the replicated
// merge order, which is keep-best: the better (lower) perf wins; at
// equal perf the higher version wins; at equal version a deterministic
// config order breaks the tie. Perf comes first because versions are
// authored independently by each owner: an owner that missed updates
// can author a better result at a lower version, and a version-first
// order would throw that acknowledged best away. The rule is a total
// order on entries, which is what makes Merge commutative, associative
// and idempotent — any interleaving of replicated writes converges
// every replica to the same single winner (TestMergeIsJoin). Equal
// entries do not supersede each other, so re-applying a record is a
// no-op.
func Supersedes(e, old Entry) bool {
	if c := rank(e.Perf, e.Version, old.Perf, old.Version); c != 0 {
		return c > 0
	}
	return cfgLess(e.Cfg, old.Cfg)
}

// SupersedesDigest reports whether a replica whose digest row for e's
// key is de needs e pushed to it: e outranks de under Supersedes's perf
// and version keys, or ties them with a different config (both sides
// push, and Supersedes's config order picks the same winner on each).
func SupersedesDigest(e Entry, de codec.DigestEntry) bool {
	if c := rank(e.Perf, e.Version, de.Perf, de.Version); c != 0 {
		return c > 0
	}
	return codec.ConfigChecksum(&e.Cfg) != de.CfgSum
}

// rank compares two entries on the merge order's first two keys: +1
// when (perf, version) a outranks b — lower perf, then higher version —
// -1 when b outranks a, 0 on a tie.
func rank(perfA float64, verA uint64, perfB float64, verB uint64) int {
	switch {
	case perfA < perfB:
		return 1
	case perfA > perfB:
		return -1
	case verA > verB:
		return 1
	case verA < verB:
		return -1
	}
	return 0
}

// cfgLess is an arbitrary but deterministic total order on configs,
// used only to break exact perf+version ties between divergent replicas.
func cfgLess(a, b arcs.ConfigValues) bool {
	if a.Threads != b.Threads {
		return a.Threads < b.Threads
	}
	if a.Schedule != b.Schedule {
		return a.Schedule < b.Schedule
	}
	if a.Chunk != b.Chunk {
		return a.Chunk < b.Chunk
	}
	//arcslint:ignore floatcmp exact tie-break between stored float fields, not a tolerance comparison
	if a.FreqGHz != b.FreqGHz {
		return a.FreqGHz < b.FreqGHz
	}
	return a.Bind < b.Bind
}

// applyReplay merges one replayed record under the Supersedes order:
// better perf wins, then higher version, then config order, so a
// duplicated or reordered record never displaces a better one. A record
// whose cap or perf is not finite, which no Save or Merge accepts, is
// skipped.
func (s *Store) applyReplay(e Entry) {
	if nonFinite(e.Key.CapW, e.Perf) {
		return
	}
	sh := s.shard(e.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.put(sh, e)
}

// put stores e in sh unless the entry at its key supersedes it, and
// reports whether it did.
//
//arcslint:locked mu
func (s *Store) put(sh *shard, e Entry) bool {
	if old, ok := sh.entries.Get(e.Key); ok && !Supersedes(e, old) {
		return false
	}
	if sh.entries.Put(e) {
		s.live.Add(1)
	}
	return true
}

// nonFinite reports whether a cap or a perf is NaN or infinite. Neither
// can be ordered: a Table sorts caps, and keep-best compares perfs.
func nonFinite(capW, perf float64) bool {
	return math.IsNaN(capW) || math.IsInf(capW, 0) || math.IsNaN(perf) || math.IsInf(perf, 0)
}

// Merge applies one already-versioned entry — a record replicated from
// a fleet peer — under the Supersedes order, persisting an accepted
// merge to the WAL exactly like a Save. Unlike Save it never assigns a
// version: the entry's author did, and replicas converge byte-identically
// only if that version is applied verbatim. Returns whether the entry
// replaced (or created) the stored record. Non-finite caps and perfs
// are rejected as in Save.
func (s *Store) Merge(e Entry) bool {
	if nonFinite(e.Key.CapW, e.Perf) {
		s.setErr(fmt.Errorf("store: non-finite cap %v or perf %v for merged %v rejected", e.Key.CapW, e.Perf, e.Key))
		return false
	}
	sh := s.shard(e.Key)
	sh.mu.Lock()
	ok := s.put(sh, e)
	sh.mu.Unlock()
	if ok {
		s.appendWAL(e)
	}
	return ok
}

// Save implements arcs.History: duplicate keys keep the best (lowest)
// perf; an accepted update bumps the entry's version and is appended to
// the WAL before Save returns. Non-finite caps and perfs are rejected
// through Err: neither can be ordered, a cap in its table nor a perf by
// keep-best.
func (s *Store) Save(k arcs.HistoryKey, cfg arcs.ConfigValues, perf float64) {
	if nonFinite(k.CapW, perf) {
		s.setErr(fmt.Errorf("store: non-finite cap %v or perf %v for %v rejected", k.CapW, perf, k))
		return
	}
	sh := s.shard(k)
	sh.mu.Lock()
	old, ok := sh.entries.Get(k)
	if ok && old.Perf <= perf {
		sh.mu.Unlock()
		return
	}
	e := Entry{Key: k, Cfg: cfg, Perf: perf, Version: old.Version + 1}
	if sh.entries.Put(e) {
		s.live.Add(1)
	}
	sh.mu.Unlock()
	s.appendWAL(e)
}

// Load implements arcs.History.
func (s *Store) Load(k arcs.HistoryKey) (arcs.ConfigValues, bool) {
	e, ok := s.Get(k)
	return e.Cfg, ok
}

// Get returns the full stored record for a key.
func (s *Store) Get(k arcs.HistoryKey) (Entry, bool) {
	sh := s.shard(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.entries.Get(k)
}

// Len implements arcs.History. The store never deletes a key, so the
// insert counter is the table size.
func (s *Store) Len() int { return int(s.live.Load()) }

// LoadNearest implements arcs.History: an exact miss is answered
// with the entry for the closest power cap in the same context (distance
// ties break toward the lower cap). The full entry is available through
// GetNearest.
func (s *Store) LoadNearest(k arcs.HistoryKey) (arcs.ConfigValues, float64, bool) {
	e, dist, ok := s.GetNearest(k)
	return e.Cfg, dist, ok
}

// GetNearest is LoadNearest returning the full record: arcs.Table's
// Nearest over k's shard, which holds every cap of k's context. It reads
// one run of caps, sorted, and looks only at the caps around k's.
func (s *Store) GetNearest(k arcs.HistoryKey) (Entry, float64, bool) {
	sh := s.shard(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.entries.Nearest(k)
}

// LoadNeighbors implements arcs.History: the contexts nearest to k —
// same app and region, ranked by cap distance with cross-workload
// entries after all same-workload ones — up to max of them, closest
// first, each with its stored version. The exact key itself is excluded
// (an exact hit is a replay, not a transfer). Cross-workload donors live
// in other contexts' shards, so the scan visits every shard, reads only
// k's (App, Region) group in each, and keeps only the max best it has
// seen (arcs.Table.Neighbors).
// This is the scan behind /v1/neighbors and the server-side searcher's
// seeds.
func (s *Store) LoadNeighbors(k arcs.HistoryKey, max int) []arcs.Neighbor {
	if max <= 0 {
		return nil
	}
	ns := make([]arcs.Neighbor, 0, max)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		ns = sh.entries.Neighbors(ns, k, max)
		sh.mu.RUnlock()
	}
	return ns
}

// Entries returns every stored record in entry order (arcs.CompareEntryKeys:
// by context, then cap), for deterministic dumps and snapshots.
func (s *Store) Entries() []Entry {
	return sortedCopy(s.shards[:])
}

// ShardEntries returns the records of one in-process shard in entry
// order. The fleet's anti-entropy sweep walks the store shard
// by shard so a digest exchange touches one shard lock at a time; every
// node computes the same key→shard mapping (FNV-1a of the context, mod
// NumShards), so shard i here summarises exactly the keys a peer's
// shard i holds, and all caps of one context travel in one digest.
// Indexes outside [0, NumShards) return nil.
func (s *Store) ShardEntries(i int) []Entry {
	if i < 0 || i >= NumShards {
		return nil
	}
	return sortedCopy(s.shards[i : i+1])
}

// sortedCopy copies the records of shards into one slice at its final
// size, each context's run whole (a context lives in one shard), and
// sorts the runs into entry order (arcs.SortEntries). Each shard is
// read under its own lock; a write landing mid-walk is either in the
// copy or not, as with any snapshot of a live store.
func sortedCopy(shards []shard) []Entry {
	n := 0
	for i := range shards {
		shards[i].mu.RLock()
		n += shards[i].entries.Len()
		shards[i].mu.RUnlock()
	}
	es := make([]Entry, 0, n)
	for i := range shards {
		sh := &shards[i]
		sh.mu.RLock()
		es = sh.entries.AppendEntries(es)
		sh.mu.RUnlock()
	}
	arcs.SortEntries(es)
	return es
}

// appendWAL serialises one accepted update as a single CRC-framed
// binary record. Whole-frame writes under walMu keep concurrent appends
// from interleaving; replay handles a torn final frame after a crash. A
// persistent run of append failures trips the store into degraded
// memory-only mode instead of hammering a dead disk forever.
//
// Compaction uses the size-ratio trigger of log-structured stores: it
// runs once the records since the last snapshot reach max(snapshotEvery,
// live entries). Each compaction rewrites the whole table, so tying its
// cadence to the table size keeps the snapshot bytes written per append
// constant. A failed automatic compaction waits for another threshold's
// worth of appends, counted from the failure, rather than re-encoding
// the table on every append while the disk is sick. The encode buffer
// and encoder are reused under walMu, so the steady-state append path
// allocates nothing.
//
//arcslint:hotpath backs the 0-allocs/op BenchmarkWALAppend/binary baseline (failure branches are cold)
func (s *Store) appendWAL(e Entry) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.closed || s.wal == nil {
		//arcslint:ignore hotpathalloc save-after-close is a caller bug, not the steady-state append path
		s.setErr(fmt.Errorf("store: save after Close dropped for %v", e.Key))
		return
	}
	if s.degraded {
		s.droppedSaves++
		return
	}
	s.walBuf = s.enc.AppendEntry(s.walBuf[:0], &e)
	if _, err := s.wal.Write(s.walBuf); err != nil {
		s.appendFails++
		//arcslint:ignore hotpathalloc WAL write failure is the cold degraded branch
		s.setErr(fmt.Errorf("store: append wal: %w", err))
		if s.appendFails >= DefaultDegradeAfter {
			s.degraded = true
			s.droppedSaves++
			//arcslint:ignore hotpathalloc tripping degraded mode happens at most once per outage
			s.degradedCause = fmt.Errorf(
				"store: degraded to memory-only after %d consecutive WAL append failures: %w",
				s.appendFails, err)
			s.setErr(s.degradedCause)
		}
		return
	}
	s.appendFails = 0
	s.walRecords++
	if s.snapshotEvery > 0 && s.walRecords-s.failedAt >= max(s.snapshotEvery, s.Len()) {
		if err := s.snapshotLocked(); err != nil {
			s.failedAt = s.walRecords
			s.setErr(err)
		}
	}
}

// Snapshot compacts the store: the full entry set is written atomically
// to the snapshot file and the WAL is truncated. It runs at once, even
// while an automatic compaction is backing off after a failure. A
// successful Snapshot also recovers a degraded store: the snapshot
// proved the filesystem writable again and the fresh WAL it installs
// resumes persistence.
func (s *Store) Snapshot() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.closed {
		return fmt.Errorf("store: snapshot after Close")
	}
	return s.snapshotLocked()
}

// snapshotLocked requires walMu (no appends can race the WAL swap; map
// readers and writers are unaffected — a Save landing between the entry
// collection and the truncation re-appends to the fresh WAL with a higher
// version, which replay resolves). Failure anywhere before the rename
// leaves the previous snapshot and the current WAL byte-identical: there
// is no window where data exists in neither file.
//
//arcslint:locked walMu
func (s *Store) snapshotLocked() error {
	data := s.enc.AppendSnapshot(nil, sortedCopy(s.shards[:]))
	tmp := s.snapshotPath() + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: create snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()        // the write error is the one worth reporting
		_ = s.fs.Remove(tmp) // best-effort cleanup of the partial temp file
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the sync error is the one worth reporting
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("store: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("store: close snapshot: %w", err)
	}
	if err := s.fs.Rename(tmp, s.snapshotPath()); err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("store: publish snapshot: %w", err)
	}
	// The snapshot now holds everything; start a fresh WAL.
	if s.wal != nil {
		if err := s.wal.Close(); err != nil {
			// The snapshot is already durable; surface the close failure
			// through Err but keep going so a fresh WAL is installed.
			s.setErr(fmt.Errorf("store: close old wal: %w", err))
		}
	}
	wal, err := s.fs.OpenFile(s.walPath(), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		s.wal = nil
		return fmt.Errorf("store: reset wal: %w", err)
	}
	s.wal = wal
	s.walRecords = 0
	s.failedAt = 0
	s.compactions++
	// The snapshot and the fresh WAL both succeeded: the filesystem is
	// healthy again, resume normal persistence.
	s.degraded = false
	s.degradedCause = nil
	s.appendFails = 0
	return nil
}

// Close flushes and closes the WAL. It deliberately does not snapshot:
// the WAL already holds every accepted update, and keeping replay on the
// reopen path means a clean shutdown and a crash recover identically.
func (s *Store) Close() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	if err != nil {
		return fmt.Errorf("store: close wal: %w", err)
	}
	return nil
}

// Err returns the first background error (WAL append failure, rejected
// perf) since the last call, and clears it. History.Save cannot return
// errors, so persistence failures surface here.
func (s *Store) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	err := s.lastErr
	s.lastErr = nil
	return err
}

func (s *Store) setErr(err error) {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	if s.lastErr == nil {
		s.lastErr = err
	}
}

// Health is a point-in-time report of the store's persistence state,
// served by arcsd's /healthz and, through the metric and help tags, on
// /metrics. Reading it does not clear Err.
type Health struct {
	// Entries is the number of served records (memory, degraded or not).
	Entries int `json:"entries" metric:"arcsd_store_entries,gauge" help:"Current number of stored configurations."`
	// Degraded reports memory-only mode: serving works, persistence is
	// stopped until a successful Snapshot.
	Degraded bool `json:"degraded" metric:"arcsd_store_degraded,gauge" help:"1 when the store is in degraded memory-only mode."`
	// DegradedCause is why the store degraded (empty when healthy).
	DegradedCause string `json:"degraded_cause,omitempty"`
	// LastErr is the pending background error Err would return (without
	// consuming it).
	LastErr string `json:"last_err,omitempty"`
	// WALRecords is the number of records appended since the last
	// compaction.
	WALRecords int `json:"wal_records" metric:"arcsd_store_wal_records,gauge" help:"WAL records appended since the last compaction."`
	// Compactions counts successful compactions (automatic or explicit)
	// since the store was opened.
	Compactions uint64 `json:"compactions" metric:"arcsd_store_compactions_total,counter" help:"Successful store compactions since start."`
	// DroppedSaves counts Saves accepted in memory but not persisted
	// while degraded.
	DroppedSaves uint64 `json:"dropped_saves,omitempty" metric:"arcsd_store_dropped_saves_total,counter" help:"Saves accepted in memory but not persisted while degraded."`
	// WALBytes and SnapshotBytes are the on-disk file sizes (0 when the
	// file is missing or unreadable).
	WALBytes      int64 `json:"wal_bytes" metric:"arcsd_store_wal_bytes,gauge" help:"On-disk size of the write-ahead log."`
	SnapshotBytes int64 `json:"snapshot_bytes" metric:"arcsd_store_snapshot_bytes,gauge" help:"On-disk size of the compacted snapshot."`
}

// Health reports the persistence state without mutating anything.
func (s *Store) Health() Health {
	h := Health{Entries: s.Len()}
	s.walMu.Lock()
	h.Degraded = s.degraded
	if s.degradedCause != nil {
		h.DegradedCause = s.degradedCause.Error()
	}
	h.WALRecords = s.walRecords
	h.Compactions = s.compactions
	h.DroppedSaves = s.droppedSaves
	s.walMu.Unlock()
	s.errMu.Lock()
	if s.lastErr != nil {
		h.LastErr = s.lastErr.Error()
	}
	s.errMu.Unlock()
	if fi, err := os.Stat(s.walPath()); err == nil {
		h.WALBytes = fi.Size()
	}
	if fi, err := os.Stat(s.snapshotPath()); err == nil {
		h.SnapshotBytes = fi.Size()
	}
	return h
}

var _ arcs.History = (*Store)(nil)
