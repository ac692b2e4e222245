// Package lintfixture is the fixture module's facade: its exported API
// is what the unreachable check counts as shipped, so clean.Keys is
// reached and nothing in dirty is.
package lintfixture

import "lintfixture/clean"

// Keys exposes clean.Keys.
func Keys(m map[string]int) []string { return clean.Keys(m) }
