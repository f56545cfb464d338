package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"supmr/internal/kv"
	"supmr/internal/spill"
)

// Cache is the typed view over a Store for one job type: it derives
// entry keys from chunk content hashes under a key space, and
// serializes per-chunk map/combine output in the spill record framing
// (identical to spill run files). Jobs whose key or value types have no
// codec cannot memoize; NewCache refuses up front. A Cache serves one
// goroutine at a time.
type Cache[K comparable, V any] struct {
	store *Store
	space []byte
	rec   *spill.Records[K, V]
}

// NewCache builds the typed layer. space namespaces keys so different
// applications (or explicitly separated key spaces) sharing one store
// never collide: the same chunk content yields different entry keys
// under different spaces.
func NewCache[K comparable, V any](store *Store, space string) (*Cache[K, V], error) {
	if store == nil {
		return nil, fmt.Errorf("memo: cache requires a store")
	}
	rec, err := spill.NewRecords[K, V]()
	if err != nil {
		return nil, fmt.Errorf("memo: %w", err)
	}
	return &Cache[K, V]{store: store, space: []byte(space), rec: rec}, nil
}

// Key derives the entry key for one chunk's content hash: a SHA-256
// over the key space and the content sum, length-framed so distinct
// (space, sum) inputs cannot collide by concatenation.
func (c *Cache[K, V]) Key(sum [32]byte) Key {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(c.space)))
	h.Write(n[:])
	h.Write(c.space)
	h.Write(sum[:])
	var k Key
	h.Sum(k[:0])
	return k
}

// Get fetches and decodes the cached pairs for k. ok reports a usable
// hit; a present-but-unreadable entry (fault, torn write, corrupt
// frame) returns ok=false with the error for accounting — the caller
// recomputes either way.
func (c *Cache[K, V]) Get(k Key) (pairs []kv.Pair[K, V], ok bool, err error) {
	payload, records, err := c.store.Get(k)
	if err != nil {
		return nil, false, err
	}
	if payload == nil {
		return nil, false, nil
	}
	pairs, err = c.rec.DecodeAll(payload, int(records))
	if err != nil {
		return nil, false, fmt.Errorf("memo: entry %x: %w", k[:4], err)
	}
	return pairs, true, nil
}

// Put serializes pairs and publishes them under k. The pairs should be
// the chunk's full combined output in its stable (key-sorted) order, so
// a later hit replays them as a ready-sorted merge source.
func (c *Cache[K, V]) Put(k Key, pairs []kv.Pair[K, V]) error {
	var buf []byte
	for _, p := range pairs {
		buf = c.rec.Append(buf, p)
	}
	return c.store.Put(k, buf, int64(len(pairs)))
}
