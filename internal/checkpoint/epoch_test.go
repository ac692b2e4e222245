package checkpoint

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestParseShardFile(t *testing.T) {
	cases := []struct {
		name  string
		shard int
		epoch uint64
		ok    bool
	}{
		{"shard-0000.ckpt", 0, 0, true},
		{"shard-0012.ckpt", 12, 0, true},
		{"shard-0003.e7.ckpt", 3, 7, true},
		{"shard-0003.e18446744073709551615.ckpt", 3, 18446744073709551615, true},
		{"shard-0003.e0.ckpt", 0, 0, false},   // epoch 0 is not a valid epoch file
		{"shard-0003.eX.ckpt", 0, 0, false},   // non-numeric epoch
		{"shard--001.ckpt", 0, 0, false},      // negative shard
		{"shard-0003.e7.lease", 0, 0, false},  // wrong suffix
		{"merged.ckpt", 0, 0, false},          // wrong prefix
		{"quarantine.jsonl", 0, 0, false},
	}
	for _, tc := range cases {
		shard, epoch, ok := ParseShardFile(tc.name)
		if shard != tc.shard || epoch != tc.epoch || ok != tc.ok {
			t.Errorf("ParseShardFile(%q) = (%d, %d, %v), want (%d, %d, %v)",
				tc.name, shard, epoch, ok, tc.shard, tc.epoch, tc.ok)
		}
	}
}

func TestEpochShardPathsAndMaxEpoch(t *testing.T) {
	dir := t.TempDir()
	set, err := OpenShardSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	record := func(j *Journal, key string) {
		t.Helper()
		if err := j.Record(key, 1); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	j0, err := Open(plainShard(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	record(j0, "a")
	j1, err := set.OpenEpochShard(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	record(j1, "b")
	j2, err := set.OpenEpochShard(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	record(j2, "c")
	j3, err := set.OpenEpochShard(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	record(j3, "d")

	if max, err := set.MaxEpoch(0); err != nil || max != 5 {
		t.Fatalf("MaxEpoch(0) = %d, %v; want 5, nil", max, err)
	}
	if max, err := set.MaxEpoch(1); err != nil || max != 3 {
		t.Fatalf("MaxEpoch(1) = %d, %v; want 3, nil", max, err)
	}
	if max, err := set.MaxEpoch(2); err != nil || max != 0 {
		t.Fatalf("MaxEpoch(2) = %d, %v; want 0, nil", max, err)
	}

	files, err := set.ShardFiles(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("ShardFiles(0) = %v, want 3 files", files)
	}

	// Paths lists plain and epoch journals together, so MergeShardFiles
	// unions every epoch.
	paths, err := set.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("Paths() = %v, want 4 journals", paths)
	}
	entries, err := MergeShardFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, e := range entries {
		keys = append(keys, e.Key)
	}
	if want := []string{"a", "b", "c", "d"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("merged keys = %v, want %v", keys, want)
	}

	// OpenEpochShard rejects the reserved epoch 0.
	if _, err := set.OpenEpochShard(0, 0); err == nil {
		t.Fatal("OpenEpochShard(0, 0) must fail: epoch 0 is the plain journal")
	}
}

// TestDeadEpochAppendsMergeCleanly models the zombie write path: a
// deposed owner appends the *same deterministic payload* for a unit the
// new owner also completed, into its own dead-epoch file. The merge
// unions both without conflict; a *different* payload (real
// nondeterminism or corruption) must still fail loudly.
func TestDeadEpochAppendsMergeCleanly(t *testing.T) {
	dir := t.TempDir()
	set, err := OpenShardSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	zombie, err := set.OpenEpochShard(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := zombie.Record("unit|x", map[string]int{"v": 7}); err != nil {
		t.Fatal(err)
	}
	if err := zombie.Close(); err != nil {
		t.Fatal(err)
	}
	owner, err := set.OpenEpochShard(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.Record("unit|x", map[string]int{"v": 7}); err != nil {
		t.Fatal(err)
	}
	if err := owner.Record("unit|y", 1); err != nil {
		t.Fatal(err)
	}
	if err := owner.Close(); err != nil {
		t.Fatal(err)
	}
	paths, err := set.Paths()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := MergeShardFiles(paths)
	if err != nil {
		t.Fatalf("identical dead-epoch append must merge cleanly: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("merged %d entries, want 2", len(entries))
	}

	// Now corrupt the invariant: rewrite the zombie file with a
	// different payload for the same key. MergeShardFiles must refuse.
	bad, err := EncodeEntry(Entry{Key: "unit|x", Payload: []byte(`{"v":8}`)})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-0000.e1.ckpt"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShardFiles(paths); err == nil {
		t.Fatal("conflicting payloads across epochs must fail the merge")
	}
}
