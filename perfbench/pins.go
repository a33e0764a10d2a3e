package main

import "runtime"

// pinned holds the output digests of the shipped seeds at full size: the
// default seed 1 and the held-out seed 7. Any other seed is checked for
// repeatability only. Other architectures may fuse floating-point
// operations differently, so the pins hold on amd64 only.
var pinned = map[string]map[int64]map[string]string{
	"cohort-visits": {
		1: {"TTL": "4b079e7b8f04f9465ef4234c", "HAT": "7e6d098ec95510697b91c2bd"},
		7: {"TTL": "7baa8f17e40e70e5d7431a32", "HAT": "7b64fc57d5a6063b99618e8b"},
	},
	"update-storm": {
		1: {"Push": "9aae6587c781f71738987a3d", "Invalidation": "1d87c6605e284528cd20f79e"},
		7: {"Push": "1ad5690c03ae4c7ccdf6d95f", "Invalidation": "f99b988d57584bce27161c6a"},
	},
	"crawl-replay": {
		1: {"crawl": "935d54436589bd227265cc6a"},
		7: {"crawl": "f00d6236cfce4ec612ed6772"},
	},
}

// shippedPins returns the pinned digests of a workload and seed, or nil.
func shippedPins(workload string, seed int64) map[string]string {
	if runtime.GOARCH != "amd64" {
		return nil
	}
	return pinned[workload][seed]
}
