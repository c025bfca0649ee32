package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Hash returns the canonical content hash of the scenario: the SHA-256 of
// its normalized, canonically encoded form, as lowercase hex. It is the
// cache key the result store keys on, so it must identify the *computation*
// a scenario describes, with two invariances:
//
//   - Field-order invariance: two JSON documents that decode to the same
//     scenario hash identically, regardless of how their keys were ordered
//     (encoding/json emits struct fields in declaration order).
//   - Default-normalization invariance: omitting a field and spelling out
//     its paper default hash identically, because hashing happens after
//     Normalize fills every default.
//
// Fields that cannot change simulation results are excluded: Name and
// Description are labels, and Run.Parallelism only bounds concurrency of
// deterministic, independently seeded trials (its GOMAXPROCS default would
// otherwise make the hash machine-dependent). Everything else — including
// Run.Seed, Run.Trials and Run.Scale — is covered.
//
// Hash fails only when the scenario does not normalize.
func (s Scenario) Hash() (string, error) {
	_, hash, err := s.Canonical()
	return hash, err
}

// Canonical normalizes the scenario once and returns the normalized copy
// with its Hash. Callers that need both pay one Normalize (and so one
// arrival-model validation) instead of two.
func (s Scenario) Canonical() (Scenario, string, error) {
	n, err := s.Normalize()
	if err != nil {
		return Scenario{}, "", err
	}
	h := n
	h.Name = ""
	h.Description = ""
	h.Run.Parallelism = 0
	data, err := json.Marshal(h)
	if err != nil {
		return Scenario{}, "", fmt.Errorf("scenario: hashing: %w", err)
	}
	sum := sha256.Sum256(data)
	return n, hex.EncodeToString(sum[:]), nil
}
