// Package gitstamp names the source a benchmark record measured, so a
// committed BENCH_*.json says which tree produced its numbers.
package gitstamp

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Stamp returns HEAD's short hash, and the git tree of the working tree
// as `git add -A` would stage it — written through a copy of the index,
// so nothing is staged — cut to 12 characters as record_e2e.sh does.
// Both are "unknown" outside a git checkout. It runs git in the
// current directory, which for a test is its package's.
func Stamp() (commit, tree string) {
	commit, tree = "unknown", "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	gitDir, err := exec.Command("git", "rev-parse", "--absolute-git-dir").Output()
	if err != nil {
		return commit, tree
	}
	index, err := os.ReadFile(filepath.Join(strings.TrimSpace(string(gitDir)), "index"))
	if err != nil {
		return commit, tree
	}
	tmp, err := os.CreateTemp("", "senseaid-index-")
	if err != nil {
		return commit, tree
	}
	defer os.Remove(tmp.Name())
	_, werr := tmp.Write(index)
	if cerr := tmp.Close(); werr != nil || cerr != nil {
		return commit, tree
	}
	env := append(os.Environ(), "GIT_INDEX_FILE="+tmp.Name())
	add := exec.Command("git", "add", "-A")
	add.Env = env
	if err := add.Run(); err != nil {
		return commit, tree
	}
	write := exec.Command("git", "write-tree")
	write.Env = env
	if out, err := write.Output(); err == nil && len(strings.TrimSpace(string(out))) >= 12 {
		tree = strings.TrimSpace(string(out))[:12]
	}
	return commit, tree
}
