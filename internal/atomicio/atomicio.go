// Package atomicio provides crash-safe file writes: a result file is
// either the complete old version or the complete new version, never a
// torn intermediate. Every artifact writer in the repo — BENCH.json,
// CSV/table exports, results/ files, the experiment journal — goes
// through WriteFile, so a process killed mid-write (the exact failure
// the resumable sweep runner recovers from) can never leave a corrupt
// artifact behind.
//
// Writers whose output is too large to hold in memory (the JSONL trace
// sink) stream instead: Create opens a hidden temporary file beside the
// target, Write appends to it, and Commit fsyncs it and renames it over
// the target, or Abort removes it. WriteFile is Create, one Write and
// Commit, so both forms share one temp/fsync/rename path.
package atomicio

import (
	"io/fs"
	"os"
	"path/filepath"
)

// TestHookBeforeRename, when non-nil, runs after the temporary file is
// written and synced but before the rename. A non-nil return aborts
// Commit (and WriteFile) with that error and — unlike every real
// failure path — leaves the temporary file behind, which is exactly the
// on-disk state of a process killed between write and rename. Crash
// tests (the sweep journal's kill-resume suite, the serve daemon's
// restart test, the JSONL sink's) use it to plant byte-accurate torn
// writes; production code must never set it.
var TestHookBeforeRename func(tmpName, path string) error

// File is an atomic write in progress: the bytes written so far sit in
// a hidden temporary file in the target's directory (same filesystem,
// so the rename is atomic) until Commit or Abort ends the write.
type File struct {
	tmp  *os.File
	path string
	perm fs.FileMode
	done bool
}

// Create starts an atomic write of path, to be given mode perm. Nothing
// at path changes before Commit.
func Create(path string, perm fs.FileMode) (*File, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, err
	}
	return &File{tmp: tmp, path: path, perm: perm}, nil
}

// Write appends p to the temporary file.
func (f *File) Write(p []byte) (int, error) { return f.tmp.Write(p) }

// Abort ends the write without touching path and removes the temporary
// file. After Commit it is a no-op, so it can be deferred.
func (f *File) Abort() {
	if f.done {
		return
	}
	f.done = true
	f.tmp.Close()
	os.Remove(f.tmp.Name())
}

// Commit sets the mode, fsyncs the temporary file and renames it over
// path. The containing directory is fsynced best-effort afterwards so
// the rename itself survives a crash. On any error the temporary file
// is removed and path is untouched.
func (f *File) Commit() error {
	tmpName := f.tmp.Name()
	if err := f.tmp.Chmod(f.perm); err != nil {
		f.Abort()
		return err
	}
	if err := f.tmp.Sync(); err != nil {
		f.Abort()
		return err
	}
	f.done = true
	if err := f.tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if hook := TestHookBeforeRename; hook != nil {
		if err := hook(tmpName, f.path); err != nil {
			// Deliberately keep tmpName: the simulated kill happened
			// before the rename, so the torn temp file survives.
			return err
		}
	}
	if err := os.Rename(tmpName, f.path); err != nil {
		os.Remove(tmpName)
		return err
	}
	// Persist the rename. Directory fsync is not supported everywhere
	// (and never on Windows); the write is already atomic without it,
	// just not yet guaranteed durable, so failures are ignored.
	if d, err := os.Open(filepath.Dir(f.path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// WriteFile writes data to path atomically: Create, one Write, Commit.
// On any error the temporary file is removed and path is untouched.
func WriteFile(path string, data []byte, perm fs.FileMode) error {
	f, err := Create(path, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}
