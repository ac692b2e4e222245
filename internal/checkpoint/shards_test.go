package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// plainShard is the path of shard i's plain, epoch-less journal — the
// layout older in-process campaigns wrote, which every reader must keep
// accepting.
func plainShard(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.ckpt", i))
}

// encodeLines renders entries as a journal image.
func encodeLines(t testing.TB, entries ...Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range entries {
		line, err := EncodeEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
	}
	return buf.Bytes()
}

func TestShardSetPathsAndOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b", "shards")
	set, err := OpenShardSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	if set.Dir() != dir {
		t.Fatalf("Dir() = %q", set.Dir())
	}
	paths, err := set.Paths()
	if err != nil || len(paths) != 0 {
		t.Fatalf("fresh set has paths %v (err %v)", paths, err)
	}
	// Open plain shard journals out of order; Paths lists them sorted.
	for _, i := range []int{2, 0} {
		j, err := Open(plainShard(dir, i))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Record("k"+string(rune('a'+i)), i); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A stray file in the directory is not a shard journal.
	if err := os.WriteFile(filepath.Join(dir, "quarantine.jsonl"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	paths, err = set.Paths()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{plainShard(dir, 0), plainShard(dir, 2)}
	if len(paths) != 2 || paths[0] != want[0] || paths[1] != want[1] {
		t.Fatalf("Paths() = %v, want %v", paths, want)
	}
	if files, err := set.ShardFiles(2); err != nil || len(files) != 1 || files[0] != want[1] {
		t.Fatalf("ShardFiles(2) = %v (err %v), want the plain journal", files, err)
	}
	if _, err := set.OpenEpochShard(-1, 1); err == nil {
		t.Fatal("negative shard index accepted")
	}
	if _, err := OpenShardSet(""); err == nil {
		t.Fatal("empty shard-set directory accepted")
	}
}

func TestMergeShardsDedupeSortAndTolerance(t *testing.T) {
	e1 := Entry{Key: "b", Payload: []byte(`1`)}
	e2 := Entry{Key: "a", Payload: []byte(`{"x":2}`)}
	e3 := Entry{Key: "c", Payload: []byte(`[3]`)}
	img1 := encodeLines(t, e1, e2)
	// Shard 2 re-records e2 identically (a stolen re-run), adds e3, and
	// ends in a torn tail that merging must tolerate.
	img2 := append(encodeLines(t, e2, e3), []byte("7f000000 {\"key\":\"torn")...)

	entries, err := MergeShards([][]byte{img1, img2, nil, []byte("garbage\n")})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("merged keys = %v, want [a b c]", keys)
	}
}

func TestMergeShardsConflictFailsLoudly(t *testing.T) {
	a := encodeLines(t, Entry{Key: "k", Payload: []byte(`1`)})
	b := encodeLines(t, Entry{Key: "k", Payload: []byte(`2`)})
	_, err := MergeShards([][]byte{a, b})
	if !errors.Is(err, ErrShardConflict) {
		t.Fatalf("err = %v, want ErrShardConflict", err)
	}
}

func TestMergeShardFilesAndWriteJournal(t *testing.T) {
	dir := t.TempDir()
	set, err := OpenShardSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		j, err := Open(plainShard(dir, i))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Record("shared", "same"); err != nil {
			t.Fatal(err)
		}
		if err := j.Record(plainShard(dir, i), i); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := set.Paths()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := MergeShardFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("merged %d entries, want 4", len(entries))
	}

	// The merged journal round-trips through WriteJournal + Open and is
	// byte-deterministic: merging in any shard order writes the same file.
	merged := filepath.Join(dir, "merged.ckpt")
	if err := WriteJournal(merged, entries); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	rev := []string{paths[2], paths[0], paths[1]}
	entries2, err := MergeShardFiles(rev)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteJournal(merged, entries2); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("merged journal bytes depend on shard order")
	}

	j, err := Open(merged)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.LoadedEntries() != 4 || j.RecoveredBytes() != 0 {
		t.Fatalf("merged journal reopened with %d entries, %d recovered bytes",
			j.LoadedEntries(), j.RecoveredBytes())
	}
	var s string
	if ok, err := j.Get("shared", &s); !ok || err != nil || s != "same" {
		t.Fatalf("merged journal lost entry: ok=%v err=%v s=%q", ok, err, s)
	}

	if _, err := MergeShardFiles([]string{filepath.Join(dir, "missing.ckpt")}); err == nil {
		t.Fatal("missing shard file accepted")
	}
}

// FuzzMergeShards drives the shard merge with arbitrary shard images —
// the path a resumed parallel campaign takes over whatever its killed
// workers left on disk. It must never panic, must stay deterministic in
// the image *set* (order-insensitive modulo conflicts), and its output
// must re-merge to itself (idempotence).
func FuzzMergeShards(f *testing.F) {
	good1 := encodeLines(f, Entry{Key: "eval|henri|seed=1", Payload: []byte(`{"n":7}`)})
	good2 := encodeLines(f, Entry{Key: "curve|dahu|pl=0/1", Payload: []byte(`[1,2,3]`)})
	overlap := encodeLines(f,
		Entry{Key: "eval|henri|seed=1", Payload: []byte(`{"n":7}`)},
		Entry{Key: "unit|netbench|henri", Payload: []byte(`25`)},
	)
	conflict := encodeLines(f, Entry{Key: "eval|henri|seed=1", Payload: []byte(`{"n":8}`)})
	f.Add(good1, good2, []byte{})
	f.Add(good1, overlap, good2)                       // duplicate keys, equal payloads
	f.Add(good1, conflict, []byte{})                   // duplicate keys, conflicting payloads
	f.Add(good1[:len(good1)-5], good2, []byte("junk")) // torn tail + garbage
	f.Add([]byte("\n\n"), []byte("zz not a journal"), good2)

	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		images := [][]byte{a, b, c}
		entries, err := MergeShards(images)
		if err != nil {
			if !errors.Is(err, ErrShardConflict) {
				t.Fatalf("merge failed with non-conflict error: %v", err)
			}
			return
		}
		seen := make(map[string]bool, len(entries))
		for i, e := range entries {
			if e.Key == "" {
				t.Fatal("merged entry with empty key")
			}
			if seen[e.Key] {
				t.Fatalf("duplicate key %q survived merging", e.Key)
			}
			seen[e.Key] = true
			if i > 0 && entries[i-1].Key >= e.Key {
				t.Fatalf("merged entries not strictly sorted: %q >= %q", entries[i-1].Key, e.Key)
			}
		}
		// Idempotence: the merged image merges to itself.
		var buf bytes.Buffer
		for _, e := range entries {
			line, err := EncodeEntry(e)
			if err != nil {
				t.Fatalf("merged entry does not re-encode: %v", err)
			}
			buf.Write(line)
		}
		again, err := MergeShards([][]byte{buf.Bytes()})
		if err != nil {
			t.Fatalf("re-merge failed: %v", err)
		}
		if len(again) != len(entries) {
			t.Fatalf("re-merge changed entry count: %d != %d", len(again), len(entries))
		}
	})
}

// TestSignalContextTwoStage proves the two-stage shutdown: the first
// signal cancels the context (graceful drain), the second hard-exits
// with status 130. The exit is injected so the test survives it.
func TestSignalContextTwoStage(t *testing.T) {
	exited := make(chan int, 1)
	ctx, stop := signalContext(func(code int) { exited <- code })
	defer stop()

	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	<-ctx.Done()
	select {
	case code := <-exited:
		t.Fatalf("first signal already exited with %d", code)
	default:
	}

	if err := p.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if code := <-exited; code != ExitInterrupted {
		t.Fatalf("second signal exited with %d, want %d", code, ExitInterrupted)
	}
}

// TestSignalContextStopReleases proves stop retires the watcher: after
// stop, the context is canceled but signals no longer reach the exit.
func TestSignalContextStopReleases(t *testing.T) {
	exited := make(chan int, 1)
	ctx, stop := signalContext(func(code int) { exited <- code })
	stop()
	<-ctx.Done()
	stop() // idempotent
	select {
	case code := <-exited:
		t.Fatalf("stopped watcher exited with %d", code)
	default:
	}
}
