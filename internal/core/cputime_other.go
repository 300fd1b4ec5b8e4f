//go:build !unix

package core

import "time"

// processCPU reports no CPU time where the platform has no getrusage, so
// roundClock.depth sees an idle host and falls back to the bare ratio.
func processCPU() time.Duration { return 0 }
