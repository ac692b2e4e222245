package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"memcontention/internal/atomicio"
)

// QuarantineFile is the report file a sharded campaign writes into its
// shard directory when units exhaust their retry budget.
const QuarantineFile = "quarantine.jsonl"

// UnitError is the structured failure of one experiment unit, following
// the internal/faults convention (typed, field-addressable, unwrappable):
// which unit, its home shard, how many attempts were burned, and the
// underlying cause of the last attempt.
type UnitError struct {
	// Key is the unit's journal key.
	Key string
	// Shard is the unit's home shard (its deterministic hash
	// assignment).
	Shard int
	// Attempts is the number of failed attempts, retries included.
	Attempts int
	// Err is the cause of the final attempt.
	Err error
}

func (e *UnitError) Error() string {
	return fmt.Sprintf("campaign: unit %s (shard %d) failed after %d attempts: %v", e.Key, e.Shard, e.Attempts, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *UnitError) Unwrap() error { return e.Err }

// QuarantineRecord is one quarantined unit as persisted in
// quarantine.jsonl: everything needed to reproduce and triage the
// failure without rerunning the campaign.
type QuarantineRecord struct {
	Key      string `json:"key"`
	Shard    int    `json:"shard"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error"`
}

// QuarantineError reports a sharded campaign that completed its healthy
// units but quarantined others; final artifacts cannot be assembled with
// units missing, so the campaign surfaces this instead of silently
// writing partial results. The per-unit detail is in Records and in the
// quarantine.jsonl file at Path.
type QuarantineError struct {
	// Records are the quarantined units, sorted by key.
	Records []QuarantineRecord
	// Path is the quarantine.jsonl report location.
	Path string
}

func (e *QuarantineError) Error() string {
	keys := make([]string, len(e.Records))
	for i, r := range e.Records {
		keys[i] = r.Key
	}
	return fmt.Sprintf("campaign: %d unit(s) quarantined after repeated failures (see %s): %s",
		len(e.Records), e.Path, strings.Join(keys, ", "))
}

// ErrQuarantined is the sentinel behind every QuarantineError, for
// errors.Is checks that do not care about the detail.
var ErrQuarantined = errors.New("campaign: units quarantined")

// Unwrap exposes the sentinel to errors.Is.
func (e *QuarantineError) Unwrap() error { return ErrQuarantined }

// writeQuarantine durably writes records (sorted by key, one JSON object
// per line) at path. Campaigns are deterministic, so the report bytes
// are too: the same poison units quarantine with the same errors no
// matter how the shards were scheduled. An empty record set writes an
// empty file, making "no quarantine" observable rather than ambiguous
// with "report lost".
func writeQuarantine(path string, records []QuarantineRecord) error {
	sorted := append([]QuarantineRecord(nil), records...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var buf bytes.Buffer
	for _, r := range sorted {
		line, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("campaign: encode quarantine record %q: %w", r.Key, err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := atomicio.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("campaign: write quarantine report: %w", err)
	}
	return nil
}

// ReadQuarantine loads a quarantine.jsonl report. A missing file is an
// empty report (the campaign had nothing to quarantine or has not
// finished); a present but malformed line is an error — the report is
// written atomically, so torn content means something else went wrong.
func ReadQuarantine(dir string) ([]QuarantineRecord, error) {
	path := filepath.Join(dir, QuarantineFile)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: read quarantine report: %w", err)
	}
	defer f.Close()
	var records []QuarantineRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r QuarantineRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("campaign: quarantine report %s: %w", path, err)
		}
		records = append(records, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign: quarantine report %s: %w", path, err)
	}
	return records, nil
}
