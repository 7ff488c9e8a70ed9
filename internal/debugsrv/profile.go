package debugsrv

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPUProfile begins a runtime/pprof CPU profile into path, the
// CLIs' -cpuprofile flag; an empty path profiles nothing. The returned
// func stops the profile and closes the file.
func StartCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeapProfile writes a runtime/pprof heap profile to path, the
// CLIs' -memprofile flag; an empty path writes nothing.
func WriteHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize up-to-date allocation stats
	return pprof.WriteHeapProfile(f)
}
