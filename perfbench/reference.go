package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
)

// references holds recorded output digests by size, seed and workload.
type references struct {
	Note    string                                             `json:"note"`
	Digests map[string]map[string]map[string]map[string]string `json:"digests"`
}

// loadReferences reads a reference file; a missing file yields an empty set.
func loadReferences(path string) (*references, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &references{}, nil
	}
	if err != nil {
		return nil, err
	}
	var r references
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("reference file %s: %w", path, err)
	}
	return &r, nil
}

func (r *references) lookup(seed int64, size, workload string) (map[string]string, bool) {
	if r == nil {
		return nil, false
	}
	d, ok := r.Digests[size][strconv.FormatInt(seed, 10)][workload]
	return d, ok && len(d) > 0
}

// recordReference merges one workload's digests for a seed into the file.
func recordReference(path string, seed int64, size, workload string, digests map[string]string) error {
	r, err := loadReferences(path)
	if err != nil {
		return err
	}
	if r.Digests == nil {
		r.Digests = map[string]map[string]map[string]map[string]string{}
	}
	s := strconv.FormatInt(seed, 10)
	if r.Digests[size] == nil {
		r.Digests[size] = map[string]map[string]map[string]string{}
	}
	if r.Digests[size][s] == nil {
		r.Digests[size][s] = map[string]map[string]string{}
	}
	r.Digests[size][s][workload] = digests
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // keep the note's <program> placeholders readable
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// digest is the short hex SHA-256 of a rendered output.
func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}
