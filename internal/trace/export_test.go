package trace

// ScanPollLine exposes the canonical poll-line scanner to the external
// tests, which build crawls with tracegen (an importer of this package).
func ScanPollLine(line []byte) (PollRecord, bool) { return scanPollLine(line, interner{}) }
