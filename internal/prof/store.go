package prof

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"memcontention/internal/atomicio"
	"memcontention/internal/trace"
)

// SpanStore persists per-unit trace slices next to a campaign journal
// (conventionally at "<journal>.spans/"). Each campaign unit saves the
// events it recorded under its journal key; on resume the cached unit's
// slice is loaded and re-ingested instead of re-run, so a stitched trace
// is byte-identical to an uninterrupted recording. File names are
// content-addressed from the key, which embeds the configuration — a
// changed configuration never resurrects a stale span file.
type SpanStore struct {
	dir string
}

// NewSpanStore opens (creating on first Save) a span store rooted at dir.
func NewSpanStore(dir string) *SpanStore { return &SpanStore{dir: dir} }

// path maps a journal key to its span file.
func (s *SpanStore) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:8])+".jsonl")
}

// Save writes one unit's event slice atomically and durably. Saving a nil
// or empty slice records an empty file, so resume distinguishes "unit
// recorded nothing" from "no span file".
func (s *SpanStore) Save(key string, events []trace.Event) error {
	if err := atomicio.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("prof: span store: %w", err)
	}
	var buf bytes.Buffer
	if err := trace.WriteEventsJSONL(&buf, events); err != nil {
		return fmt.Errorf("prof: span store %q: %w", key, err)
	}
	if err := atomicio.WriteFile(s.path(key), buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("prof: span store %q: %w", key, err)
	}
	return nil
}

// Load reads one unit's event slice; ok is false when the unit has no
// span file (e.g. it ran before profiling was enabled).
func (s *SpanStore) Load(key string) (events []trace.Event, ok bool, err error) {
	f, err := os.Open(s.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("prof: span store %q: %w", key, err)
	}
	defer f.Close()
	events, err = trace.ReadJSONL(f)
	if err != nil {
		return nil, false, fmt.Errorf("prof: span store %q: %w", key, err)
	}
	return events, true, nil
}
