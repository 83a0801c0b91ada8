// Package agg defines aggregation functions: how many bytes an aggregate of
// d data items occupies on the wire.
//
// The paper evaluates two (§5.1, §5.4) and discusses a third (§3):
//
//   - Perfect aggregation: an aggregate is the size of a single event
//     (64 B) regardless of item count — the idealized upper bound on
//     in-network reduction.
//   - Linear aggregation: z(S) = d·|x| + h with 28-byte items and a 36-byte
//     header — lossless packing whose only savings are per-transmission
//     overheads.
//   - Packing aggregation: the §3 lossless example, equivalent in wire size
//     to linear aggregation but kept as its own function, which ByName
//     selects as "packing".
package agg

import "fmt"

import "repro/internal/msg"

// Func maps an item count to an aggregate's wire size in bytes.
type Func interface {
	// Size returns the wire size of an aggregate holding items data items.
	// items must be >= 1.
	Size(items int) int
}

// Perfect is the paper's perfect aggregation: any aggregate is one event's
// size.
type Perfect struct{}

// Size implements Func.
func (Perfect) Size(items int) int {
	mustPositive(items)
	return msg.EventBytes
}

// Linear is the paper's linear aggregation z(S) = d·|x| + h, with the
// paper's |x| = msg.LinearItemBytes and h = msg.LinearHeaderBytes.
type Linear struct{}

// Size implements Func.
func (Linear) Size(items int) int {
	mustPositive(items)
	return items*msg.LinearItemBytes + msg.LinearHeaderBytes
}

// Packing packs whole unaggregated events behind a single header: the §3
// lossless "packing aggregation" whose only savings are the shared
// per-transmission overhead.
type Packing struct{}

// Size implements Func.
func (Packing) Size(items int) int {
	mustPositive(items)
	// Each packed event keeps its full payload minus the per-packet header
	// it no longer needs; one shared header is added.
	payload := msg.EventBytes - msg.LinearHeaderBytes
	return items*payload + msg.LinearHeaderBytes
}

// Timestamp models the §3 timestamp aggregation: temporally correlated
// events share their coarse timestamp fields (e.g. hour+minute, 8 bytes),
// so each item beyond the first drops that redundant portion of its
// representation.
type Timestamp struct{}

// timestampSharedBytes is the per-item redundancy Timestamp eliminates.
const timestampSharedBytes = 8

// Size implements Func.
func (Timestamp) Size(items int) int {
	mustPositive(items)
	payload := msg.EventBytes - msg.LinearHeaderBytes
	// First item keeps the full representation; later correlated items
	// drop the shared fields. One header for the aggregate.
	return msg.LinearHeaderBytes + payload + (items-1)*(payload-timestampSharedBytes)
}

// Outline models the §3 escan-style lossy aggregation: topologically
// adjacent readings collapse into a bounded summary (a polygon), so the
// aggregate size saturates at outlineCapItems regardless of item count.
type Outline struct{}

// outlineCapItems is the item count beyond which an outline stops growing.
const outlineCapItems = 4

// Size implements Func.
func (Outline) Size(items int) int {
	mustPositive(items)
	return (Linear{}).Size(min(items, outlineCapItems))
}

// ByName returns the aggregation function with the given name.
func ByName(name string) (Func, error) {
	switch name {
	case "perfect":
		return Perfect{}, nil
	case "linear":
		return Linear{}, nil
	case "packing":
		return Packing{}, nil
	case "timestamp":
		return Timestamp{}, nil
	case "outline":
		return Outline{}, nil
	default:
		return nil, fmt.Errorf("agg: unknown aggregation function %q", name)
	}
}

func mustPositive(items int) {
	if items < 1 {
		panic(fmt.Sprintf("agg: aggregate of %d items", items))
	}
}
