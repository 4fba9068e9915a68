package coord

// The coordinator's write-ahead journal (DESIGN.md §12). Every state
// transition that must survive a coordinator crash — a sweep submission,
// an accepted completion record — is appended to an fsync'd log *before*
// the in-memory state machine applies it. Recover replays the journal
// (plus the shared cellcache, through Submit's normal prefill path) into a
// fresh Coordinator, so a SIGKILL'd daemon restarted over the same
// -state-dir resumes with every submission, every merged cell, and every
// done shard intact — zero lost work, zero duplicate simulation.
//
// Format: one entry per line, "crc32c-hex8 <compact JSON>\n". The CRC
// covers the JSON bytes, so the reader can tell a torn final append (the
// crash raced the write — tolerated, the entry had not been acknowledged)
// from corruption earlier in the file (refused loudly: silently dropping
// an acknowledged submission is exactly the failure mode the journal
// exists to prevent). Replay is idempotent because the state machine is:
// Submit dedupes by ConfigHash and Complete merges cell-wise, so an entry
// applied before the crash and replayed after it changes nothing.
//
// Completion entries embed the full shard.Record — measurements included —
// which makes the journal self-sufficient: a coordinator with no cellcache
// at all still recovers every merged cell, and a coordinator whose cache
// lost entries (disk swap, quarantined corruption) heals them from the
// journal during replay.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"readretry/internal/experiments/shard"
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
	// Record carries an accepted completion record, measurements included.
	Record *shard.Record `json:"record,omitempty"`
}

// Journal is an append-only fsync'd log of journalEntry lines. Safe for
// concurrent use.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// OpenJournal opens (creating if absent) the journal at path for
// appending. The parent directory must exist; syncDir is best-effort so a
// freshly created journal file itself survives a crash.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("coord: opening journal: %w", err)
	}
	syncDir(filepath.Dir(path))
	return &Journal{f: f, path: path}, nil
}

// syncDir fsyncs a directory so a just-created name in it is durable.
// Best-effort: some filesystems refuse directory syncs.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

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
	j.mu.Lock()
	defer j.mu.Unlock()
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
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	serr := j.f.Sync()
	cerr := j.f.Close()
	j.f = nil
	if serr != nil {
		return serr
	}
	return cerr
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

// maxJournalLine bounds one journal entry (a completion record for a very
// large grid is megabytes; 256 MiB is far beyond any real sweep).
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
	switch e.Type {
	case "submit":
		if e.Spec == nil {
			return e, errors.New("submit entry missing spec")
		}
	case "complete":
		if e.Record == nil {
			return e, errors.New("complete entry missing record")
		}
	default:
		return e, fmt.Errorf("unknown entry type %q", e.Type)
	}
	return e, nil
}

// RecoveryStats summarizes a Recover replay.
type RecoveryStats struct {
	// Jobs and Records count replayed journal entries.
	Jobs    int
	Records int
	// MergedCells is the total number of cells already merged across all
	// jobs after replay (journal records plus cellcache prefill) — the
	// work the restart did NOT lose.
	MergedCells int
	// DoneJobs counts jobs that finalized during replay.
	DoneJobs int
	// TornTail reports the journal ended in a torn (unacknowledged)
	// append, which replay discarded.
	TornTail bool
}

func (s RecoveryStats) String() string {
	return fmt.Sprintf("%d jobs (%d already done), %d completion records, %d cells recovered",
		s.Jobs, s.DoneJobs, s.Records, s.MergedCells)
}

// Recover builds a Coordinator whose durable state lives under stateDir
// (created if absent): the journal is replayed into a fresh coordinator —
// each submission re-registered (probing opts.Cache exactly as a live
// Submit would) and each completion record re-merged — and then attached,
// so every subsequent Submit/Complete appends before it acknowledges.
// Leases are deliberately not recovered: they are ephemeral by design, so
// a restarted coordinator simply re-leases any shard the journal does not
// record as complete, and the lease-holding workers learn at their next
// heartbeat (ErrUnknownLease) and re-pull.
//
// Use Close on the returned coordinator to flush and release the journal.
func Recover(stateDir string, opts Options) (*Coordinator, RecoveryStats, error) {
	var stats RecoveryStats
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, stats, fmt.Errorf("coord: state dir: %w", err)
	}
	path := filepath.Join(stateDir, JournalFilename)
	entries, valid, torn, err := readJournal(path)
	if err != nil {
		return nil, stats, err
	}
	stats.TornTail = torn

	c := New(opts) // journal not attached yet: replay must not re-append
	for i, e := range entries {
		switch e.Type {
		case "submit":
			if _, err := c.Submit(*e.Spec, e.Shards); err != nil {
				return nil, stats, fmt.Errorf("coord: replaying journal entry %d (submit): %w", i+1, err)
			}
			stats.Jobs++
		case "complete":
			if _, err := c.Complete("", e.Record); err != nil {
				return nil, stats, fmt.Errorf("coord: replaying journal entry %d (complete): %w", i+1, err)
			}
			stats.Records++
		}
	}
	for _, st := range c.Jobs() {
		stats.MergedCells += st.CellsDone
		if st.Done {
			stats.DoneJobs++
		}
	}

	jl, err := OpenJournal(path)
	if err != nil {
		return nil, stats, err
	}
	if torn {
		// Cut the torn bytes off before the next append lands after them:
		// left in place, they would swallow that acknowledged entry.
		err := jl.f.Truncate(valid)
		if err == nil {
			err = jl.f.Sync()
		}
		if err != nil {
			jl.Close()
			return nil, stats, fmt.Errorf("coord: truncating torn journal tail: %w", err)
		}
	}
	c.mu.Lock()
	c.journal = jl
	c.mu.Unlock()
	return c, stats, nil
}
