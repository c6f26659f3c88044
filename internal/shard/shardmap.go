package shard

import (
	"encoding/json"
	"fmt"
	"os"
)

// MapSchema is the shard-map file's schema tag.
const MapSchema = "mmjoin-shardmap/v1"

// Entry names one shard: a stable id (the consistent-hash identity —
// renaming a shard moves its keys), the segment directory holding its
// R%d.seg/S%d.seg files, and the partition count they were created
// with.
type Entry struct {
	ID  string `json:"id"`
	Dir string `json:"dir"`
	D   int    `json:"d"`
}

// Map is the on-disk shard-map format `mmdb serve -shard-map` loads:
//
//	{
//	  "schema": "mmjoin-shardmap/v1",
//	  "replicas": 64,
//	  "shards": [
//	    {"id": "shard-0", "dir": "/data/shard-0", "d": 4},
//	    {"id": "shard-1", "dir": "/data/shard-1", "d": 4}
//	  ]
//	}
//
// Replicas is the virtual-node count per shard on the routing ring
// (0: default 64). Shards own no pool, so the map sizes none; a
// "workersPerShard" key in an older map is ignored.
type Map struct {
	Schema   string  `json:"schema"`
	Replicas int     `json:"replicas,omitempty"`
	Shards   []Entry `json:"shards"`
}

// Validate checks structural sanity: at least one shard, unique
// non-empty ids, non-empty dirs, positive D.
func (m *Map) Validate() error {
	if m.Schema != "" && m.Schema != MapSchema {
		return fmt.Errorf("shard: map schema %q, want %q", m.Schema, MapSchema)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("shard: map has no shards")
	}
	seen := make(map[string]struct{}, len(m.Shards))
	for i, e := range m.Shards {
		if e.ID == "" {
			return fmt.Errorf("shard: shards[%d] has no id", i)
		}
		if _, dup := seen[e.ID]; dup {
			return fmt.Errorf("shard: duplicate shard id %q", e.ID)
		}
		seen[e.ID] = struct{}{}
		if e.Dir == "" {
			return fmt.Errorf("shard: shard %q has no dir", e.ID)
		}
		if e.D < 1 {
			return fmt.Errorf("shard: shard %q has d=%d, want >= 1", e.ID, e.D)
		}
	}
	return nil
}

// LoadMap reads and validates a shard-map file.
func LoadMap(path string) (*Map, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Map
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("shard: parsing map %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("shard: %s: %w", path, err)
	}
	return &m, nil
}

// WriteMap validates and writes a shard-map file (stamping the schema).
func WriteMap(path string, m *Map) error {
	m.Schema = MapSchema
	if err := m.Validate(); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
