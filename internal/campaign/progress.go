package campaign

import (
	"fmt"
	"strings"
)

// ShardProgress is one home shard's completion state in a sharded
// campaign.
type ShardProgress struct {
	Shard       int `json:"shard"`
	Done        int `json:"done"`
	Pending     int `json:"pending"`
	Quarantined int `json:"quarantined"`
}

// ProgressReport is a point-in-time snapshot of a sharded campaign: the
// overall completion plus the per-shard split and the worker restart
// count. The same numbers feed the memcontention_campaign_* gauges,
// so a scrape and a report never disagree.
type ProgressReport struct {
	Units       int             `json:"units"`
	Done        int             `json:"done"`
	Quarantined int             `json:"quarantined"`
	Restarts    int             `json:"restarts"`
	Shards      []ShardProgress `json:"shards"`
}

// String renders the report for logs: the overall line, then one line
// per shard in shard order.
func (p ProgressReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign: %d/%d units done, %d quarantined, %d restarts\n",
		p.Done, p.Units, p.Quarantined, p.Restarts)
	for _, s := range p.Shards {
		fmt.Fprintf(&b, "  shard %d: %d done, %d pending, %d quarantined\n",
			s.Shard, s.Done, s.Pending, s.Quarantined)
	}
	return b.String()
}
