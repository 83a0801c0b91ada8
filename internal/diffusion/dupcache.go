package diffusion

import (
	"time"

	"repro/internal/msg"
	"repro/internal/topology"
)

// dupCache is one interest's duplicate-suppression cache: the items a node
// has seen, each held from its first sighting until prunePass expires it.
//
// Every caller adds an item only after finding it absent (generateEvent and
// exploratoryRound with a fresh sequence number, onData and deliver after
// the duplicate test), always at the kernel's current time. So each add is
// a first sighting, the log of sightings is in time order, and expiry pops
// the log's front. A bitset per source over sequence numbers answers has
// without hashing: one shared slab holds every source's window of stride
// words, and word w of a source's window lives in slot w mod stride, so the
// window slides as sequence numbers advance without moving any word. The
// log is a ring for the same reason, and it doubles when full: append's
// gentler growth past 256 entries allocated 2.5 times as much.
type dupCache struct {
	srcs   []dupSource
	words  []uint64  // source i's window is words[i*stride : (i+1)*stride]
	stride int       // words per window, a power of two; zero until the first add
	log    []dupMark // a ring of power-of-two length: count marks from head on
	head   int
	count  int
}

// dupSource is one source's window: every held sequence number s has
// s>>6 in [lo, hi), and hi-lo never exceeds the stride.
type dupSource struct {
	src    topology.NodeID
	lo, hi int
}

// dupMark is one first sighting.
type dupMark struct {
	key msg.ItemKey
	at  time.Duration
}

// find returns the index of src's window, or -1. A node hears few sources
// per interest, so a scan beats any index.
func (c *dupCache) find(src topology.NodeID) int {
	for i := range c.srcs {
		if c.srcs[i].src == src {
			return i
		}
	}
	return -1
}

// word returns the slab word holding sequence numbers w*64 to w*64+63 of
// source i.
func (c *dupCache) word(i, w int) *uint64 {
	return &c.words[i*c.stride+w&(c.stride-1)]
}

// has reports whether k is held.
func (c *dupCache) has(k msg.ItemKey) bool {
	i := c.find(k.Source)
	if i < 0 {
		return false
	}
	w := k.Seq >> 6
	s := c.srcs[i]
	return w >= s.lo && w < s.hi && *c.word(i, w)&(1<<(uint(k.Seq)&63)) != 0
}

// add records a sighting of k at time at, unless k is already held. at
// must not precede any earlier add's, which the kernel's clock guarantees.
func (c *dupCache) add(k msg.ItemKey, at time.Duration) {
	i := c.find(k.Source)
	if i < 0 {
		if c.stride == 0 {
			c.stride = 1
		}
		i = len(c.srcs)
		c.srcs = append(c.srcs, dupSource{src: k.Source})
		c.words = append(c.words, make([]uint64, c.stride)...)
	}
	w := k.Seq >> 6
	s := &c.srcs[i]
	if s.lo == s.hi {
		s.lo, s.hi = w, w+1
	} else {
		lo, hi := min(s.lo, w), max(s.hi, w+1)
		if hi-lo > c.stride {
			c.widen(hi - lo)
		}
		s.lo, s.hi = lo, hi
	}
	p, bit := c.word(i, w), uint64(1)<<(uint(k.Seq)&63)
	if *p&bit != 0 {
		return
	}
	*p |= bit
	if c.count == len(c.log) {
		c.growLog()
	}
	c.log[(c.head+c.count)&(len(c.log)-1)] = dupMark{key: k, at: at}
	c.count++
}

// growLog doubles the log ring, unrolling it oldest first.
func (c *dupCache) growLog() {
	log := make([]dupMark, max(16, 2*len(c.log)))
	n := copy(log, c.log[c.head:])
	copy(log[n:], c.log[:c.head])
	c.log, c.head = log, 0
}

// widen doubles the stride until a window of span words fits, moving every
// window's words to their slots in the new slab.
func (c *dupCache) widen(span int) {
	stride := c.stride
	for stride < span {
		stride *= 2
	}
	words := make([]uint64, len(c.srcs)*stride, cap(c.words)/c.stride*stride)
	for i, s := range c.srcs {
		for w := s.lo; w < s.hi; w++ {
			words[i*stride+w&(stride-1)] = *c.word(i, w)
		}
	}
	c.words, c.stride = words, stride
}

// expire drops every sighting older than ttl at now, then narrows each
// window to its outermost non-zero words.
func (c *dupCache) expire(now, ttl time.Duration) {
	n := 0
	for ; n < c.count && now-c.mark(n).at > ttl; n++ {
		k := c.mark(n).key
		*c.word(c.find(k.Source), k.Seq>>6) &^= 1 << (uint(k.Seq) & 63)
	}
	if n == 0 {
		return
	}
	c.head = (c.head + n) & (len(c.log) - 1)
	c.count -= n
	for i := range c.srcs {
		s := &c.srcs[i]
		for s.lo < s.hi && *c.word(i, s.lo) == 0 {
			s.lo++
		}
		for s.hi > s.lo && *c.word(i, s.hi-1) == 0 {
			s.hi--
		}
	}
}

// mark returns the i-th oldest sighting held.
func (c *dupCache) mark(i int) *dupMark { return &c.log[(c.head+i)&(len(c.log)-1)] }

// size returns the number of items held.
func (c *dupCache) size() int { return c.count }
