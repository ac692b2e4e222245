package campaign

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestProgressReportJSONRoundTrip(t *testing.T) {
	p := ProgressReport{
		Units: 9, Done: 5, Quarantined: 1, Restarts: 2,
		Shards: []ShardProgress{
			{Shard: 0, Done: 3, Pending: 1},
			{Shard: 1, Done: 2, Pending: 2, Quarantined: 1},
		},
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var got ProgressReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, p)
	}
	// The field names are a wire contract (beacons embed ShardProgress,
	// memtop's JSON report embeds both): pin them.
	for _, key := range []string{`"units"`, `"done"`, `"quarantined"`, `"restarts"`, `"shards"`, `"shard"`, `"pending"`} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("encoded report %s lacks %s", data, key)
		}
	}
}

// TestProgressReportStringGolden pins the exact rendering — the same
// lines operators grep in logs and the soak harness matches on.
func TestProgressReportStringGolden(t *testing.T) {
	p := ProgressReport{
		Units: 4, Done: 2, Quarantined: 1, Restarts: 1,
		Shards: []ShardProgress{
			{Shard: 0, Done: 2, Pending: 0, Quarantined: 0},
			{Shard: 1, Done: 0, Pending: 1, Quarantined: 1},
		},
	}
	want := "campaign: 2/4 units done, 1 quarantined, 1 restarts\n" +
		"  shard 0: 2 done, 0 pending, 0 quarantined\n" +
		"  shard 1: 0 done, 1 pending, 1 quarantined\n"
	if got := p.String(); got != want {
		t.Fatalf("String():\n%q\nwant:\n%q", got, want)
	}
}

// TestProgressReportEmptyCampaign pins the zero-value rendering: a
// campaign with no units (or a report read before any work) must render
// a sane overall line and no shard lines, and survive the JSON round
// trip with Shards nil.
func TestProgressReportEmptyCampaign(t *testing.T) {
	var p ProgressReport
	want := "campaign: 0/0 units done, 0 quarantined, 0 restarts\n"
	if got := p.String(); got != want {
		t.Fatalf("zero String():\n%q\nwant:\n%q", got, want)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var got ProgressReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("zero round trip: %+v", got)
	}
}

// TestProgressReportAllQuarantined covers the pathological fleet state
// where every unit is poison: done stays zero, the shard views carry the
// whole campaign as quarantined, and the rendering says so plainly.
func TestProgressReportAllQuarantined(t *testing.T) {
	p := ProgressReport{
		Units: 3, Quarantined: 3, Restarts: 6,
		Shards: []ShardProgress{
			{Shard: 0, Quarantined: 2},
			{Shard: 1, Quarantined: 1},
		},
	}
	want := "campaign: 0/3 units done, 3 quarantined, 6 restarts\n" +
		"  shard 0: 0 done, 0 pending, 2 quarantined\n" +
		"  shard 1: 0 done, 0 pending, 1 quarantined\n"
	if got := p.String(); got != want {
		t.Fatalf("String():\n%q\nwant:\n%q", got, want)
	}
	total := 0
	for _, s := range p.Shards {
		total += s.Quarantined
	}
	if total != p.Quarantined {
		t.Fatalf("shard quarantine sum %d != overall %d", total, p.Quarantined)
	}
}
