package main

import (
	"os"
	"sync/atomic"
	"time"

	"cryptoarch/internal/store"
)

// countingFS wraps the store's production filesystem and counts the time,
// bytes and calls of its reads and writes. A write is the store's atomic
// protocol: WriteFile to a temp name, then Rename into place.
type countingFS struct {
	store.FS
	readNS, readBytes, reads    atomic.Int64
	writeNS, writeBytes, writes atomic.Int64
}

func newCountingFS() *countingFS { return &countingFS{FS: store.OsFS()} }

func (f *countingFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	b, err := f.FS.ReadFile(name)
	f.readNS.Add(time.Since(start).Nanoseconds())
	f.readBytes.Add(int64(len(b)))
	f.reads.Add(1)
	return b, err
}

func (f *countingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	start := time.Now()
	err := f.FS.WriteFile(name, data, perm)
	f.writeNS.Add(time.Since(start).Nanoseconds())
	f.writeBytes.Add(int64(len(data)))
	f.writes.Add(1)
	return err
}

func (f *countingFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := f.FS.Rename(oldpath, newpath)
	f.writeNS.Add(time.Since(start).Nanoseconds())
	return err
}

// storeIO is a snapshot of a countingFS's counters.
type storeIO struct {
	readNS, readBytes, reads    int64
	writeNS, writeBytes, writes int64
}

func (f *countingFS) snapshot() storeIO {
	return storeIO{
		readNS: f.readNS.Load(), readBytes: f.readBytes.Load(), reads: f.reads.Load(),
		writeNS: f.writeNS.Load(), writeBytes: f.writeBytes.Load(), writes: f.writes.Load(),
	}
}

func (a storeIO) sub(b storeIO) storeIO {
	return storeIO{
		readNS: a.readNS - b.readNS, readBytes: a.readBytes - b.readBytes, reads: a.reads - b.reads,
		writeNS: a.writeNS - b.writeNS, writeBytes: a.writeBytes - b.writeBytes, writes: a.writes - b.writes,
	}
}
