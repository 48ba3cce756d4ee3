package atomicio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	want := []byte(`{"hello":"world"}`)
	if err := WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %q, want %q", got, want)
	}
	// No temp litter.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after write, want 1", len(entries))
	}
}

func TestWriteFileReplacesExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "new" {
		t.Fatalf("read back %q, want new", got)
	}
}

func TestWriteFileMissingDir(t *testing.T) {
	err := WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), []byte("x"), 0o644)
	if err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

func TestWriteFileKillHook(t *testing.T) {
	// The crash seam: a hook error simulates a process killed between
	// write and rename — the target must be untouched (old bytes intact)
	// and the torn temp file must survive, because that is the state the
	// sweep journal's resume path has to cope with.
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.json")
	if err := WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	killed := errors.New("killed")
	var sawTmp string
	TestHookBeforeRename = func(tmpName, target string) error {
		sawTmp = tmpName
		return killed
	}
	defer func() { TestHookBeforeRename = nil }()
	if err := WriteFile(path, []byte("new"), 0o644); !errors.Is(err, killed) {
		t.Fatalf("WriteFile returned %v, want the kill error", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "old" {
		t.Fatalf("target holds %q after simulated kill, want old bytes", got)
	}
	tornData, err := os.ReadFile(sawTmp)
	if err != nil {
		t.Fatalf("torn temp file missing: %v", err)
	}
	if string(tornData) != "new" {
		t.Fatalf("torn temp holds %q, want the new bytes", tornData)
	}
	// Clearing the hook restores normal atomic behaviour.
	TestHookBeforeRename = nil
	if err := WriteFile(path, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("post-hook write read back %q", got)
	}
}

func TestWriteFileTempNameHidden(t *testing.T) {
	// The temp pattern must be dot-prefixed so half-written files never
	// match the journal's *.json scan.
	dir := t.TempDir()
	tmp, err := os.CreateTemp(dir, "."+"cell.json"+".tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.Remove(tmp.Name())
	if !strings.HasPrefix(filepath.Base(tmp.Name()), ".") {
		t.Fatalf("temp name %q is not hidden", filepath.Base(tmp.Name()))
	}
	tmp.Close()
}

func TestCreateStreamsAndCommits(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	if err := WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Create(path, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Abort() // a no-op once committed
	for _, part := range []string{"one\n", "two\n", "three\n"} {
		if _, err := f.Write([]byte(part)); err != nil {
			t.Fatal(err)
		}
	}
	// Until Commit, path keeps its old bytes.
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("target holds %q before Commit", got)
	}
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "one\ntwo\nthree\n" {
		t.Fatalf("read back %q", got)
	}
	if fi, _ := os.Stat(path); fi.Mode().Perm() != 0o600 {
		t.Fatalf("mode %v, want 0600", fi.Mode().Perm())
	}
	f.Abort()
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d entries after Commit, want 1", len(entries))
	}
}

func TestAbortLeavesTargetAndNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	if err := WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Create(path, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("half a trace")); err != nil {
		t.Fatal(err)
	}
	f.Abort()
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("target holds %q after Abort", got)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d entries after Abort, want 1", len(entries))
	}
}

func TestCommitKillHookKeepsTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	killed := errors.New("killed")
	var sawTmp string
	TestHookBeforeRename = func(tmpName, target string) error {
		sawTmp = tmpName
		return killed
	}
	defer func() { TestHookBeforeRename = nil }()
	f, err := Create(path, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("torn"))
	if err := f.Commit(); !errors.Is(err, killed) {
		t.Fatalf("Commit returned %v, want the kill error", err)
	}
	f.Abort() // must not clean up the simulated crash
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("target exists after a kill before rename: %v", err)
	}
	if got, err := os.ReadFile(sawTmp); err != nil || string(got) != "torn" {
		t.Fatalf("torn temp file: %q, %v", got, err)
	}
}
