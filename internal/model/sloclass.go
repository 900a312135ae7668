package model

import (
	"encoding/json"
	"fmt"
)

// SLOClass tiers an inference service (or a submission cohort) by how
// strictly its SLO must be defended when the cluster cannot satisfy
// everyone — the mixed-SLO fleets the paper never ran. The zero value
// ClassUnset means "no class declared": a run whose services all carry
// ClassUnset takes exactly the classless code paths and is
// byte-identical to a build without SLO classes.
type SLOClass uint8

// The class taxonomy, ordered from the most to the least protected.
const (
	// ClassUnset is the zero value: no class declared, legacy classless
	// behavior everywhere.
	ClassUnset SLOClass = iota
	// ClassCritical: user-facing revenue path. Never sheds load; the
	// scheduler keeps training interference off its devices entirely.
	ClassCritical
	// ClassStandard: ordinary production serving. Tolerates bounded
	// co-location but is never shed.
	ClassStandard
	// ClassSheddable: traffic the business can drop under burst
	// (speculative prefetch, best-effort personalization). Admission
	// control sheds its overload instead of violating critical SLOs.
	ClassSheddable
	// ClassBatch: throughput-oriented serving (offline scoring fronted
	// by the online stack). Queues behind everything; not shed — batch
	// work is deferred, not discarded.
	ClassBatch
	// ClassBackground: scavenger load. Queues last and sheds first.
	ClassBackground

	numSLOClasses // keep last
)

var sloClassNames = [numSLOClasses]string{
	ClassUnset:      "",
	ClassCritical:   "critical",
	ClassStandard:   "standard",
	ClassSheddable:  "sheddable",
	ClassBatch:      "batch",
	ClassBackground: "background",
}

// String returns the wire name of the class ("" for ClassUnset).
func (c SLOClass) String() string {
	if c < numSLOClasses {
		return sloClassNames[c]
	}
	return fmt.Sprintf("sloclass(%d)", uint8(c))
}

// Valid reports whether c is a defined class (ClassUnset included).
func (c SLOClass) Valid() bool { return c < numSLOClasses }

// Rank is the criticality order used for placement steering and cohort
// queue priority: higher ranks are protected first. ClassUnset ranks zero —
// it never competes, because a classless run consults no ranks.
func (c SLOClass) Rank() int {
	switch c {
	case ClassCritical:
		return 5
	case ClassStandard:
		return 4
	case ClassSheddable:
		return 3
	case ClassBatch:
		return 2
	case ClassBackground:
		return 1
	default:
		return 0
	}
}

// MaxClassRank is the highest Rank any class returns.
const MaxClassRank = 5

// SheddableLoad reports whether admission control may shed this class's
// overload. Only ClassSheddable and ClassBackground qualify: batch work
// is deferred rather than discarded, and critical/standard load is
// never dropped.
func (c SLOClass) SheddableLoad() bool {
	return c == ClassSheddable || c == ClassBackground
}

// MarshalJSON encodes the class as its wire name (ClassUnset as "").
func (c SLOClass) MarshalJSON() ([]byte, error) {
	if !c.Valid() {
		return nil, fmt.Errorf("model: invalid SLO class %d", uint8(c))
	}
	return json.Marshal(c.String())
}

// UnmarshalJSON decodes a wire name back into the class.
func (c *SLOClass) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	cls, err := ParseSLOClass(s)
	if err != nil {
		return err
	}
	*c = cls
	return nil
}

// ParseSLOClass resolves a wire name ("critical", ..., "background";
// "" means ClassUnset).
func ParseSLOClass(s string) (SLOClass, error) {
	for i, name := range sloClassNames {
		if name == s {
			return SLOClass(i), nil
		}
	}
	return ClassUnset, fmt.Errorf("model: unknown SLO class %q (known: %v)", s, SLOClasses())
}

// SLOClasses lists the declared classes (ClassUnset excluded) in
// criticality order.
func SLOClasses() []SLOClass {
	return []SLOClass{
		ClassCritical, ClassStandard, ClassSheddable, ClassBatch, ClassBackground,
	}
}
