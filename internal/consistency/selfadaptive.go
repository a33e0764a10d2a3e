package consistency

import "fmt"

// Mode is the self-adaptive automaton's current regime.
type Mode int

// Self-adaptive modes (Algorithm 1).
const (
	// ModeTTL: the server polls every TTL.
	ModeTTL Mode = iota + 1
	// ModeInvalidationIdle: the server switched to Invalidation and is
	// waiting for the provider's invalidation notice.
	ModeInvalidationIdle
	// ModeInvalidated: an invalidation arrived; the server waits for the
	// first end-user visit, which triggers the poll and the switch back
	// to TTL.
	ModeInvalidated
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeTTL:
		return "ttl"
	case ModeInvalidationIdle:
		return "invalidation-idle"
	case ModeInvalidated:
		return "invalidated"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// SelfAdaptive is the per-server state machine of Algorithm 1. It is pure:
// the caller performs the actual polling/notification I/O that each
// transition requests. The zero value is not ready; use NewSelfAdaptive.
type SelfAdaptive struct {
	mode Mode
	// switches counts regime changes, an observable for tests and stats.
	switches int
}

// NewSelfAdaptive starts in TTL mode, as Algorithm 1's Main does.
func NewSelfAdaptive() *SelfAdaptive {
	return &SelfAdaptive{mode: ModeTTL}
}

// Mode returns the current regime.
func (s *SelfAdaptive) Mode() Mode { return s.mode }

// OnPollResult reports a TTL poll outcome. When the poll found no update
// (Algorithm 1 line 7-8) the automaton switches to Invalidation and the
// caller must notify the provider; the return value requests that
// notification. Polls in non-TTL modes are protocol errors.
func (s *SelfAdaptive) OnPollResult(hadUpdate bool) (notifyProvider bool, err error) {
	if s.mode != ModeTTL {
		return false, fmt.Errorf("consistency: poll result in mode %v", s.mode)
	}
	if hadUpdate {
		return false, nil // stay in TTL (Algorithm 1 lines 4-7)
	}
	s.mode = ModeInvalidationIdle
	s.switches++
	return true, nil
}

// OnInvalidation reports the provider's invalidation notice (Algorithm 1
// line 10). Notices while not in Invalidation mode are tolerated but
// ignored (they can race with the mode-switch notification in flight).
func (s *SelfAdaptive) OnInvalidation() {
	if s.mode == ModeInvalidationIdle {
		s.mode = ModeInvalidated
	}
}

// OnVisit reports an end-user visit. In ModeInvalidated the visit triggers
// the poll-and-switch-back (Algorithm 1 lines 11-13): pollNow asks the
// caller to poll the provider for the update and notify it of the switch;
// the automaton returns to TTL mode. In other modes visits need no action.
func (s *SelfAdaptive) OnVisit() (pollNow bool) {
	if s.mode != ModeInvalidated {
		return false
	}
	s.mode = ModeTTL
	s.switches++
	return true
}
