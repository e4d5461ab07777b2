package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// sourceID names the program version a result was measured on: the git
// commit when the checkout has one, otherwise a digest of the Go sources
// and module files under the working directory. Determinism records are
// keyed by it, so two versions of the program never compare outputs.
var sourceID = sync.OnceValue(func() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" {
			data, err := os.ReadFile(path)
			if err != nil {
				return nil
			}
			h.Write([]byte(path + "\x00"))
			h.Write(data)
		}
		return nil
	})
	id := "src-" + hex.EncodeToString(h.Sum(nil))[:16]
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if commit, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
				ref = strings.TrimSpace(string(commit))
			}
		}
		if len(ref) >= 12 {
			id = ref[:12] + "-" + id
		}
	}
	return id
})
