// Package checkpoint is a miniature stand-in for the repo's durable
// checkpoint store: the durability analyzer matches it by package name so
// this fake exercises exactly the code paths the real one does.
package checkpoint

import "errors"

// FS abstracts the durable filesystem, mirroring the real package.
type FS interface {
	WriteFile(name string, data []byte) error
	Rename(oldname, newname string) error
}

// Writer persists solver frontiers.
type Writer struct{ dead bool }

// NewWriter opens a checkpoint writer rooted at dir.
func NewWriter(dir string) (*Writer, error) {
	if dir == "" {
		return nil, errors.New("checkpoint: empty dir")
	}
	return &Writer{}, nil
}

// CheckpointLevel persists one DP frontier.
func (w *Writer) CheckpointLevel(level int) error {
	if w.dead {
		return errors.New("checkpoint: writer wedged")
	}
	return nil
}

// Discard drops the partial checkpoint.
func (w *Writer) Discard() error { return nil }

// Scan lists resumable checkpoints under dir.
func Scan(dir string) ([]string, error) {
	if dir == "" {
		return nil, errors.New("checkpoint: empty dir")
	}
	return nil, nil
}

// Decode parses a checkpoint image — codec surface, not persistence: its
// errors signal corruption and must propagate.
func Decode(data []byte) ([]uint64, error) {
	if len(data) == 0 {
		return nil, errors.New("checkpoint: corrupt image")
	}
	return nil, nil
}

// ProblemHash canonically hashes an instance — codec surface.
func ProblemHash(v any) (string, error) {
	if v == nil {
		return "", errors.New("checkpoint: nil problem")
	}
	return "h", nil
}
