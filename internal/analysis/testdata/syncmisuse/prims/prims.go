//worksimtest:importpath repro/internal/fixture/prims

// Package prims exercises the syncmisuse analyzer: mixed atomic/plain field
// access and time.Sleep inside a //worksim:tickloop loop — each with a clean
// or allow-suppressed counterpart.
package prims

import (
	"sync/atomic"
	"time"
)

type counters struct {
	hits  int64
	plain int64
}

func mixedAccess(c *counters) int64 {
	atomic.AddInt64(&c.hits, 1) // clean: the atomic site itself
	total := c.hits             // want `field hits is accessed atomically elsewhere`
	c.plain++                   // clean: plain is never touched atomically
	//worksim:allow fixture: read happens before the goroutines that use atomics start
	startup := c.hits // clean: suppressed with a reasoned allow
	return total + startup
}

func tickSleep(ticks <-chan struct{}) {
	//worksim:tickloop
	for range ticks {
		time.Sleep(time.Millisecond) // want `time.Sleep inside a //worksim:tickloop loop`
	}
	for range ticks {
		time.Sleep(time.Millisecond) // clean: not a tick loop
	}
}
