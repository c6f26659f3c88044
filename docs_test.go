package mmjoin

// Tests that hold the prose to the tree: a metric name the docs cite
// must be one the benchmark declares, an option they cite must be a
// field of the struct they name, and README's Layout block must list
// the directories that exist.

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"mmjoin/internal/mstore"
	"mmjoin/internal/service"
	"mmjoin/internal/shard"
)

var (
	backTicked = regexp.MustCompile("`([^`\n]+)`")
	// A per-layer metric as the docs write it: the layer, a dot, a
	// lower-case name (Go identifiers such as mstore.JoinRequest are
	// capitalised after the dot), optionally a trailing ".*".
	layerMetric = regexp.MustCompile(`^(mstore|exec|planner|service|shard|trace|model)\.[a-z][a-z0-9_.-]*?(\.\*)?$`)
	// A bare name that ends the way the benchmark's metrics do: a
	// percentile, an aggregate, a rate, a share, or seconds/megabytes.
	bareMetric = regexp.MustCompile(`^[a-z][a-z0-9_]*_(p[0-9]+|geomean|per_s|per_join|share|s|mb)$`)
)

// TestDocsCiteKnownMetrics: every metric name back-ticked in the four
// docs is a name in BENCHMARK.json or a dotted prefix of one
// (`exec.speedup` for `exec.speedup.grace`); a bare name may also be a
// per-layer metric without its layer (`choose_us_p50`).
func TestDocsCiteKnownMetrics(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	addPrefixes := func(name string) {
		for i := 0; i < len(name); i++ {
			if name[i] == '.' {
				known[name[:i]] = true
			}
		}
		known[name] = true
	}
	for _, m := range decl.EndToEnd {
		known[m.Name] = true
	}
	for _, m := range decl.PerLayer {
		addPrefixes(m.Name)
		_, bare, _ := strings.Cut(m.Name, ".")
		addPrefixes(bare)
	}
	if len(decl.EndToEnd) == 0 || len(decl.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics", len(decl.EndToEnd), len(decl.PerLayer))
	}

	cited := 0
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "ROADMAP.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range backTicked.FindAllStringSubmatch(string(text), -1) {
			tok := m[1]
			if !layerMetric.MatchString(tok) && !bareMetric.MatchString(tok) {
				continue
			}
			cited++
			if !known[strings.TrimSuffix(tok, ".*")] {
				t.Errorf("%s cites `%s`, which BENCHMARK.json does not declare", doc, tok)
			}
		}
	}
	if cited == 0 {
		t.Error("no metric citation found in any doc; the patterns no longer match how the docs write them")
	}
}

// TestDocsCiteRealFields: every `JoinRequest.X`, `service.Config.X`,
// `shard.Config.X` and `shard.Map.X` README.md and DESIGN.md name is a
// field of that struct, so the docs cannot go on citing a deleted knob.
// A bare JoinRequest is the store's.
func TestDocsCiteRealFields(t *testing.T) {
	structs := map[string]reflect.Type{
		"JoinRequest":         reflect.TypeOf(mstore.JoinRequest{}),
		"mstore.JoinRequest":  reflect.TypeOf(mstore.JoinRequest{}),
		"service.JoinRequest": reflect.TypeOf(service.JoinRequest{}),
		"service.Config":      reflect.TypeOf(service.Config{}),
		"shard.Config":        reflect.TypeOf(shard.Config{}),
		"shard.Map":           reflect.TypeOf(shard.Map{}),
	}
	fieldRef := regexp.MustCompile(`((?:[a-z]+\.)?JoinRequest|service\.Config|shard\.Config|shard\.Map)\.([A-Z]\w*)`)
	cited := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range fieldRef.FindAllStringSubmatch(string(text), -1) {
			cited++
			typ, ok := structs[m[1]]
			if !ok {
				t.Errorf("%s cites %s, a struct this test does not know", doc, m[0])
			} else if _, ok := typ.FieldByName(m[2]); !ok {
				t.Errorf("%s cites %s, which is not a field of %v", doc, m[0], typ)
			}
		}
	}
	if cited == 0 {
		t.Error("no field citation found; the pattern no longer matches how the docs write them")
	}
}

// TestReadmeLayoutMatchesTree: the Layout block lists every internal/*
// and cmd/* directory that exists and none that does not.
func TestReadmeLayoutMatchesTree(t *testing.T) {
	text, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(text), "## Layout")
	if !ok {
		t.Fatal("README.md has no Layout section")
	}
	_, block, _ := strings.Cut(rest, "```\n")
	block, _, ok = strings.Cut(block, "```")
	if !ok {
		t.Fatal("README.md Layout section has no fenced block")
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(block, "\n") {
		if f := strings.Fields(line); len(f) > 0 && line[0] != ' ' &&
			(strings.HasPrefix(f[0], "internal/") || strings.HasPrefix(f[0], "cmd/")) {
			listed[f[0]] = true
		}
	}
	exist := map[string]bool{}
	for _, parent := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				exist[parent+"/"+e.Name()] = true
			}
		}
	}
	var problems []string
	for dir := range exist {
		if !listed[dir] {
			problems = append(problems, dir+" exists but is not in README Layout")
		}
	}
	for dir := range listed {
		if !exist[dir] {
			problems = append(problems, dir+" is in README Layout but does not exist")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}
