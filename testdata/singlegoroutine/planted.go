// Package planted holds what the single-goroutine tree test must find:
// an import of each sync package and a go statement.
package planted

import (
	"sync"
	"sync/atomic"
)

var (
	mu    sync.Mutex
	count atomic.Int64
)

func spawn(done chan struct{}) {
	mu.Lock()
	// A deferred call is no go statement, nor is a name that says go.
	defer mu.Unlock()
	goAhead := func() { count.Add(1) }
	go func() {
		goAhead()
		close(done)
	}()
}
