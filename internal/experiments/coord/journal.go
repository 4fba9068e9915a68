package coord

// The coordinator's write-ahead journal (DESIGN.md §12). It holds what
// only it can hold: every sweep submission, and one marker per accepted
// completion. The measurements themselves live once, in the coordinator's
// cell store (Options.Cache; by default a cellcache disk tier under the
// state dir), which Complete writes before it appends the marker. Both
// are fsync'd before the coordinator acknowledges, so Recover rebuilds a
// SIGKILL'd daemon by replaying the submissions alone: each re-Submit
// merges, from the store, every cell that was merged before the crash —
// zero lost work, zero duplicate simulation.
//
// Format: one entry per line, "crc32c-hex8 <compact JSON>\n". The CRC
// covers the JSON bytes, so the reader can tell a torn final append (the
// crash raced the write — tolerated, the entry had not been acknowledged)
// from corruption earlier in the file (refused loudly: silently dropping
// an acknowledged submission is exactly the failure mode the journal
// exists to prevent). Replay is idempotent because Submit is: it dedupes
// by ConfigHash, so a submission applied before the crash and replayed
// after it changes nothing.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"

	"readretry/internal/experiments/cellcache"
)

// JournalFilename is the journal's name inside a coordinator state dir.
const JournalFilename = "coordinator.journal"

// ErrJournal wraps failures to append to the journal. The WAL discipline
// makes them refusals, not losses: the triggering submission or completion
// is rejected without touching coordinator state, and over HTTP the error
// maps to 503 so a retrying client delivers it again once the journal is
// writable.
var ErrJournal = errors.New("coord: journal append failed")

// journalCRC is CRC-32C, matching the cellcache entry checksum.
var journalCRC = crc32.MakeTable(crc32.Castagnoli)

// journalEntry is one durable state transition.
type journalEntry struct {
	// Type is "submit" or "complete".
	Type string `json:"type"`
	// Spec and Shards carry a submission.
	Spec   *Spec `json:"spec,omitempty"`
	Shards int   `json:"shards,omitempty"`
	// Job and Shard mark an accepted completion: the job's ID and the
	// delivered manifest's shard index. The measurements are in the cell
	// store; an older journal's "complete" entry that still carries them
	// is read as a marker too.
	Job   string `json:"job,omitempty"`
	Shard *int   `json:"shard,omitempty"`
}

// Journal is the append-only fsync'd log of journalEntry lines that
// Recover opens. The coordinator's mutex serializes every Append, and
// Close runs after the coordinator has detached it.
type Journal struct{ f *os.File }

// Append writes one entry and fsyncs before returning: when Append
// reports success the entry will be replayed after any crash.
func (j *Journal) Append(e journalEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("%w: encoding entry: %v", ErrJournal, err)
	}
	line := make([]byte, 0, len(data)+10)
	line = append(line, fmt.Sprintf("%08x ", crc32.Checksum(data, journalCRC))...)
	line = append(line, data...)
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("%w: sync: %v", ErrJournal, err)
	}
	return nil
}

// Close syncs and closes the journal.
func (j *Journal) Close() error {
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readJournal parses every entry at path. A missing file is an empty
// journal. A torn or checksum-failing *final* line is tolerated (tornTail
// true): it is the unacknowledged append the crash interrupted, and so is
// a final line without its newline. The same damage anywhere earlier is
// corruption of acknowledged state and returns an error naming the line.
// valid is the byte length of the intact, newline-terminated prefix.
func readJournal(path string) (entries []journalEntry, valid int64, tornTail bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, false, nil
		}
		return nil, 0, false, fmt.Errorf("coord: reading journal: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), maxJournalLine)
	sc.Split(scanTerminatedLines)
	lineNo := 0
	var pendingErr error // damage seen on the previous line; fatal only if more lines follow
	for sc.Scan() {
		lineNo++
		if pendingErr != nil {
			return nil, 0, false, fmt.Errorf("coord: journal %s corrupt mid-file: %w", path, pendingErr)
		}
		line, ok := bytes.CutSuffix(sc.Bytes(), []byte{'\n'})
		if !ok {
			pendingErr = fmt.Errorf("line %d: unterminated entry", lineNo)
			continue
		}
		e, err := parseJournalLine(line)
		if err != nil {
			pendingErr = fmt.Errorf("line %d: %w", lineNo, err)
			continue
		}
		entries = append(entries, e)
		valid += int64(len(line)) + 1
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) && pendingErr == nil {
			// An oversized tail can only be a torn append of the final
			// entry; treat it like any other torn tail.
			return entries, valid, true, nil
		}
		return nil, 0, false, fmt.Errorf("coord: reading journal: %w", err)
	}
	return entries, valid, pendingErr != nil, nil
}

// scanTerminatedLines is bufio.ScanLines keeping each line's '\n', so
// readJournal can tell a complete final line from a torn one.
func scanTerminatedLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// maxJournalLine bounds one journal entry. Submissions and markers are
// small, but an older journal's completion entries carry whole records,
// megabytes for a very large grid; 256 MiB is far beyond any real sweep.
const maxJournalLine = 256 << 20

// parseJournalLine decodes and verifies "crc32c-hex8 <json>".
func parseJournalLine(line []byte) (journalEntry, error) {
	var e journalEntry
	i := bytes.IndexByte(line, ' ')
	if i != 8 {
		return e, errors.New("malformed entry framing")
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &sum); err != nil {
		return e, errors.New("malformed entry checksum")
	}
	payload := line[9:]
	if crc32.Checksum(payload, journalCRC) != sum {
		return e, errors.New("entry checksum mismatch")
	}
	if err := json.Unmarshal(payload, &e); err != nil {
		return e, fmt.Errorf("entry JSON: %w", err)
	}
	if e.Type == "submit" && e.Spec == nil {
		return e, errors.New("submit entry missing spec")
	}
	if e.Type != "submit" && e.Type != "complete" {
		return e, fmt.Errorf("unknown entry type %q", e.Type)
	}
	return e, nil
}

// RecoveryStats summarizes a Recover replay.
type RecoveryStats struct {
	// Jobs counts replayed submissions, Records completion markers.
	Jobs    int
	Records int
	// MergedCells is the total number of cells already merged across all
	// jobs after replay, each found in the cell store — the work the
	// restart did NOT lose.
	MergedCells int
	// DoneJobs counts jobs that finalized during replay.
	DoneJobs int
	// TornTail reports the journal ended in a torn (unacknowledged)
	// append, which replay discarded.
	TornTail bool
}

func (s RecoveryStats) String() string {
	return fmt.Sprintf("%d jobs (%d already done), %d completion markers, %d cells recovered",
		s.Jobs, s.DoneJobs, s.Records, s.MergedCells)
}

// Recover builds a Coordinator whose durable state lives under stateDir
// (created if absent). opts.Cache is its cell store; when it is nil,
// Recover opens a cellcache disk tier at stateDir/cells, whose
// integrity events and failed writes go to the standard logger. The
// journal's submissions are replayed into a fresh coordinator, each
// probing the store exactly as a live Submit would, so every cell merged
// before the crash is merged again and every shard it covers is born
// done. The journal is then attached, so every subsequent Submit/Complete
// appends before it acknowledges. Completion markers are only counted.
// Leases are deliberately not recovered: they are ephemeral by design,
// so a restarted coordinator simply re-leases any shard the store does
// not cover, and the lease-holding workers learn at their next heartbeat
// (ErrUnknownLease) and re-pull.
//
// Use Close on the returned coordinator to flush and release the journal.
func Recover(stateDir string, opts Options) (*Coordinator, RecoveryStats, error) {
	var stats RecoveryStats
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, stats, fmt.Errorf("coord: state dir: %w", err)
	}
	if opts.Cache == nil {
		store, err := cellcache.Disk(filepath.Join(stateDir, "cells"))
		if err != nil {
			return nil, stats, err
		}
		store.SetLogf(log.Printf)
		opts.Cache = store
	}
	path := filepath.Join(stateDir, JournalFilename)
	entries, valid, torn, err := readJournal(path)
	if err != nil {
		return nil, stats, err
	}
	stats.TornTail = torn

	c := New(opts) // journal not attached yet: replay must not re-append
	for i, e := range entries {
		if e.Type == "complete" {
			stats.Records++
			continue
		}
		if _, err := c.Submit(*e.Spec, e.Shards); err != nil {
			return nil, stats, fmt.Errorf("coord: replaying journal entry %d (submit): %w", i+1, err)
		}
		stats.Jobs++
	}
	for _, st := range c.Jobs() {
		stats.MergedCells += st.CellsDone
		if st.Done {
			stats.DoneJobs++
		}
	}

	// Syncing the directory (best-effort: some filesystems refuse) makes a
	// freshly created journal itself survive a crash.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, stats, fmt.Errorf("coord: opening journal: %w", err)
	}
	_ = cellcache.SyncDir(stateDir)
	if torn {
		// Cut the torn bytes off before the next append lands after them:
		// left in place, they would swallow that acknowledged entry.
		err := f.Truncate(valid)
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, stats, fmt.Errorf("coord: truncating torn journal tail: %w", err)
		}
	}
	c.mu.Lock()
	c.journal = &Journal{f: f}
	c.mu.Unlock()
	return c, stats, nil
}
