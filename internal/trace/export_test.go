package trace

// ScanPollLine exposes the canonical poll-line scanner to the external
// tests, which build crawls with tracegen (an importer of this package).
func ScanPollLine(line []byte) (PollRecord, bool) { return scanPollLine(line, interner{}) }

// ScanLogPollLine exposes the canonical #cdnlog poll-line scanner the same
// way.
func ScanLogPollLine(line []byte) (PollRecord, bool) { return scanLogPollLine(line, interner{}) }

// MaxBlock is the largest block the readers collect records in.
const MaxBlock = maxBlock
