// Package durable is a memlint fixture: direct artifact writes that the
// durable check must flag, and a suppressed scratch-file use it must
// honor.
package durable

import "os"

// SaveReport writes an artifact directly — flagged: a crash mid-write
// leaves a torn file.
func SaveReport(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644) // want "direct os.WriteFile can tear on crash"
}

// OpenArtifact creates the destination in place — flagged.
func OpenArtifact(path string) (*os.File, error) {
	return os.Create(path) // want "direct os.Create can tear on crash"
}

// Publish renames without the stage-and-fsync protocol — flagged.
func Publish(tmp, final string) error {
	return os.Rename(tmp, final) // want "direct os.Rename can tear on crash"
}

// Scratch writes a deliberately non-durable temp file, suppressed in
// place with a reason — silent.
func Scratch(path string, data []byte) error {
	//memlint:allow durable — scratch file for a local diff, never an artifact
	return os.WriteFile(path, data, 0o600)
}

// SpanDir creates a journal's side directory in place — flagged: after
// a power loss the directory, and every file written into it, can be
// gone while the journal that names it survives.
func SpanDir(dir string) error {
	return os.MkdirAll(dir, 0o755) // want "direct os.MkdirAll can lose the new directory on crash"
}

// ReadBack only reads — silent.
func ReadBack(path string) ([]byte, error) {
	return os.ReadFile(path)
}
