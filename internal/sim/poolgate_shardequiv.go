//go:build shardequiv

package sim

// poolMinEvents is 0 under the shardequiv tag: every window with several
// active cells goes to the worker pool, however small. See poolgate.go.
const poolMinEvents = 0
