package sim

import (
	"smartvlc/internal/frame"
	"smartvlc/internal/scheme"
	"smartvlc/internal/telemetry"
)

// codecCache is the session's level-keyed codec cache, shared by the
// single-receiver and broadcast loops (which previously each carried a
// copy of this logic). The dimming controller quantizes onto a small set
// of levels it revisits constantly, so after the first frame at a level
// every later frame at it is a map hit; scheme.CodecFor stays the single
// constructor, the cache only pins its results per level for the session.
type codecCache struct {
	scheme  scheme.Scheme
	byLevel map[float64]frame.PayloadCodec
}

// newCodecCache returns an empty cache for a session running s.
func newCodecCache(s scheme.Scheme) codecCache {
	return codecCache{scheme: s, byLevel: make(map[float64]frame.PayloadCodec, 8)}
}

// codecFor returns the scheme's codec for a dimming level, cached per
// level for the session.
func (c *codecCache) codecFor(level float64) (frame.PayloadCodec, error) {
	if codec, ok := c.byLevel[level]; ok {
		codecCacheHits.Inc()
		return codec, nil
	}
	codecCacheMisses.Inc()
	codec, err := c.scheme.CodecFor(level)
	if err != nil {
		return nil, err
	}
	c.byLevel[level] = codec
	return codec, nil
}

// Codec-cache efficiency counters live on the process-global registry,
// like the PHY threshold cache's: the hit rate is a property of the
// process's workload mix, not of any one deterministic session.
var (
	codecCacheHits   = telemetry.Global().Counter("sim_codec_cache_total", "result", "hit")
	codecCacheMisses = telemetry.Global().Counter("sim_codec_cache_total", "result", "miss")
)

// CodecCacheStats reports cumulative hit/miss counts of the per-level
// session codec cache.
func CodecCacheStats() (hits, misses int64) {
	return codecCacheHits.Value(), codecCacheMisses.Value()
}
