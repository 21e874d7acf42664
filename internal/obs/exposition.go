package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"fairdms/internal/hdrhist"
)

// This file is the structured side of the Prometheus-text contract:
// ParseExposition checks that an exposition is well formed and turns it
// into a typed model that can be relabeled, merged, and re-rendered;
// RenderExposition is its inverse.
// Federate builds the fleet view the cluster router serves: every shard's
// families re-exposed with a node label, plus dms_fleet_* aggregates.

// Family is one parsed metric family: its metadata and every sample line
// that belongs to it (summary _sum/_count lines included).
type Family struct {
	Name string
	Help string
	Type string // "counter" | "gauge" | "summary"
	// Samples preserve exposition order.
	Samples []SampleLine
}

// SampleLine is one exposition sample. Suffix distinguishes a summary's
// aggregate lines ("_sum", "_count") from quantile/value lines ("").
type SampleLine struct {
	Suffix string
	Labels []Label // exposition order, quantile label included
	Value  float64
}

// Label is one label pair of a sample.
type Label struct{ Key, Value string }

// Get returns the value of the label named key ("" when absent).
func (s SampleLine) Get(key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// without returns the sample's labels minus the named keys, as a stable
// grouping identity.
func (s SampleLine) without(keys ...string) []Label {
	out := make([]Label, 0, len(s.Labels))
next:
	for _, l := range s.Labels {
		for _, k := range keys {
			if l.Key == k {
				continue next
			}
		}
		out = append(out, l)
	}
	return out
}

func labelKey(labels []Label) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + "=" + l.Value
	}
	return strings.Join(parts, "\x00")
}

// ParseExposition parses Prometheus text exposition (version 0.0.4, the
// dialect WritePrometheus emits) into its family model, and is the one
// check that an exposition is well formed: every sample belongs to a
// family declared by a # TYPE line (a summary's _sum and _count lines
// included), family names are lowercase_snake, types are counter, gauge
// or summary, and no family is declared twice. Samples with no preceding
// # TYPE declaration, malformed label syntax, non-numeric values, and a
// family named like a summary's _sum or _count line are errors.
// RenderExposition(ParseExposition(x)) reproduces x byte for byte for
// registry-rendered input.
func ParseExposition(data []byte) ([]Family, error) {
	var fams []Family
	byName := make(map[string]int)
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("line %d: malformed comment %q", ln+1, line)
			}
			name := fields[2]
			idx, ok := byName[name]
			if !ok {
				idx = len(fams)
				byName[name] = idx
				fams = append(fams, Family{Name: name})
			}
			if fields[1] == "HELP" {
				if len(fields) == 4 {
					fams[idx].Help = unescape(fields[3])
				}
				continue
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", ln+1, line)
			}
			typ := fields[3]
			if typ != "counter" && typ != "gauge" && typ != "summary" {
				return nil, fmt.Errorf("line %d: unknown type %q", ln+1, typ)
			}
			if fams[idx].Type != "" {
				return nil, fmt.Errorf("line %d: family %q declared twice", ln+1, name)
			}
			if !ValidName(name) {
				return nil, fmt.Errorf("line %d: metric name %q not lowercase_snake", ln+1, name)
			}
			fams[idx].Type = typ
			continue
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", ln+1, err)
		}
		idx, suffix, ok := resolveFamily(byName, fams, name)
		if !ok {
			return nil, fmt.Errorf("line %d: sample %q has no # TYPE declaration", ln+1, name)
		}
		fams[idx].Samples = append(fams[idx].Samples, SampleLine{Suffix: suffix, Labels: labels, Value: value})
	}
	for _, f := range fams {
		if f.Type == "" {
			return nil, fmt.Errorf("family %q has HELP but no TYPE", f.Name)
		}
		// A family named like a summary's _sum or _count line would claim
		// that line on a second parse of the rendering.
		for _, sfx := range []string{"_sum", "_count"} {
			if base, found := strings.CutSuffix(f.Name, sfx); found {
				if idx, ok := byName[base]; ok && fams[idx].Type == "summary" {
					return nil, fmt.Errorf("family %q collides with summary %q", f.Name, base)
				}
			}
		}
	}
	return fams, nil
}

// resolveFamily maps a sample name to its declared family, peeling the
// summary _sum/_count suffixes.
func resolveFamily(byName map[string]int, fams []Family, name string) (idx int, suffix string, ok bool) {
	if idx, ok = byName[name]; ok && fams[idx].Type != "" {
		return idx, "", true
	}
	for _, sfx := range []string{"_sum", "_count"} {
		if base, found := strings.CutSuffix(name, sfx); found {
			if idx, ok = byName[base]; ok && fams[idx].Type == "summary" {
				return idx, sfx, true
			}
		}
	}
	return 0, "", false
}

// parseSample splits one sample line into name, labels, and value.
func parseSample(line string) (string, []Label, float64, error) {
	name := line
	rest := ""
	var labels []Label
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		body, tail, ok := cutLabelBody(line[i+1:])
		if !ok {
			return "", nil, 0, fmt.Errorf("sample %q has an unterminated label set", line)
		}
		var err error
		if labels, err = parseLabels(body); err != nil {
			return "", nil, 0, fmt.Errorf("sample %q: %v", line, err)
		}
		rest = tail
	} else if j := strings.IndexByte(line, ' '); j >= 0 {
		name = line[:j]
		rest = line[j:]
	}
	val := strings.TrimSpace(rest)
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad sample value %q: %v", val, err)
	}
	return name, labels, v, nil
}

// cutLabelBody splits `k="v",...}  value` into the label body and the
// trailing value, honoring escaped quotes inside label values.
func cutLabelBody(s string) (body, tail string, ok bool) {
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch {
		case inQuote && s[i] == '\\':
			i++ // skip the escaped byte
		case s[i] == '"':
			inQuote = !inQuote
		case !inQuote && s[i] == '}':
			return s[:i], s[i+1:], true
		}
	}
	return "", "", false
}

// parseLabels parses a `k="v",k2="v2"` label body.
func parseLabels(body string) ([]Label, error) {
	var labels []Label
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label near %q", body)
		}
		key := strings.TrimSpace(body[:eq])
		rest := body[eq+2:]
		end := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		// The renderer writes escapeLabel's output with %q: Unquote undoes
		// the quoting, whatever bytes %q escaped, and unescape the rest.
		value, err := strconv.Unquote(`"` + rest[:end] + `"`)
		if err != nil {
			return nil, fmt.Errorf("label value for %q is not a quoted string", key)
		}
		labels = append(labels, Label{Key: key, Value: unescape(value)})
		body = strings.TrimPrefix(strings.TrimSpace(rest[end+1:]), ",")
		body = strings.TrimSpace(body)
	}
	return labels, nil
}

// RenderExposition writes families back in the registry's exposition
// dialect (HELP+TYPE header, 'g'-formatted values), the byte-level inverse
// of ParseExposition on registry output.
func RenderExposition(fams []Family) []byte {
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Samples {
			b.WriteString(f.Name)
			b.WriteString(s.Suffix)
			if len(s.Labels) > 0 {
				b.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, "%s=%q", l.Key, escapeLabel(l.Value))
				}
				b.WriteByte('}')
			}
			// Counter and summary count values are integers at the source;
			// 'g' formatting renders them without a decimal point, so the
			// round trip stays byte-identical.
			fmt.Fprintf(&b, " %s\n", formatFloat(s.Value))
		}
	}
	return []byte(b.String())
}

// unescape reverses escapeHelp and escapeLabel (`\\`, `\"`, `\n`) in
// a single left-to-right pass; unknown escapes pass through verbatim.
func unescape(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case '"':
				b.WriteByte('"')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Federation

// NodeLabel is the label key Federate stamps on every per-shard series.
const NodeLabel = "node"

// FleetPrefix replaces the dms_ prefix on aggregate families.
const FleetPrefix = "dms_fleet_"

// NodeExposition is one shard's parsed /metricsz, tagged with the node
// identity that becomes the node label of its series.
type NodeExposition struct {
	Node     string
	Families []Family
}

// fleetName maps a source family to its aggregate: dms_requests_total →
// dms_fleet_requests_total; a non-dms_ name is prefixed whole.
func fleetName(name string) string {
	return FleetPrefix + strings.TrimPrefix(name, "dms_")
}

// summarySeries accumulates one label-set's summary across nodes.
type summarySeries struct {
	labels []Label
	hist   hdrhist.Histogram
	sum    float64
	count  int64
}

// scalarSeries accumulates one label-set's counter or gauge across nodes.
type scalarSeries struct {
	labels []Label
	sum    float64
	min    float64
	max    float64
	n      int
}

// Federate merges per-node expositions into the fleet view: every input
// family re-exposed under its own name with a node label prepended to each
// sample, plus one dms_fleet_* aggregate family per source family —
// counters sum, gauges report min/max/mean (a stat label), and summaries
// merge through an hdrhist reconstruction: each node's reported quantiles
// are replayed into a shared histogram weighted by that node's sample
// count, so merged fleet quantiles are order-independent across nodes
// (bucket increments commute) and _sum/_count add exactly. Family
// metadata (help, type) comes from the first node exposing the family; a
// same-named family with a conflicting type on a later node is skipped.
// Output families are sorted by name and the rendered result always
// passes ParseExposition.
func Federate(nodes []NodeExposition) []Family {
	type agg struct {
		typ       string
		help      string
		perNode   []SampleLine
		scalars   map[string]*scalarSeries // labelKey → series
		summaries map[string]*summarySeries
		order     []string // first-seen labelKey order
	}
	aggs := make(map[string]*agg)
	var names []string

	for _, ne := range nodes {
		for _, f := range ne.Families {
			a, ok := aggs[f.Name]
			if !ok {
				a = &agg{
					typ: f.Type, help: f.Help,
					scalars:   make(map[string]*scalarSeries),
					summaries: make(map[string]*summarySeries),
				}
				aggs[f.Name] = a
				names = append(names, f.Name)
			}
			if f.Type != a.typ {
				continue // type conflict across nodes: first declaration wins
			}
			// Per-node view: node label first, original labels after.
			for _, s := range f.Samples {
				labeled := SampleLine{
					Suffix: s.Suffix,
					Labels: append([]Label{{Key: NodeLabel, Value: ne.Node}}, s.Labels...),
					Value:  s.Value,
				}
				a.perNode = append(a.perNode, labeled)
			}
			// Aggregate view.
			switch f.Type {
			case "counter", "gauge":
				for _, s := range f.Samples {
					key := labelKey(s.Labels)
					sc, ok := a.scalars[key]
					if !ok {
						sc = &scalarSeries{labels: s.Labels}
						a.scalars[key] = sc
						a.order = append(a.order, key)
					}
					if sc.n == 0 || s.Value < sc.min {
						sc.min = s.Value
					}
					if sc.n == 0 || s.Value > sc.max {
						sc.max = s.Value
					}
					sc.sum += s.Value
					sc.n++
				}
			case "summary":
				mergeSummaryNode(a.summaries, &a.order, f.Samples)
			}
		}
	}

	sort.Strings(names)
	out := make([]Family, 0, 2*len(names))
	for _, name := range names {
		a := aggs[name]
		out = append(out, Family{Name: name, Help: a.help + " (per node)", Type: a.typ, Samples: a.perNode})
		fleet := Family{Name: fleetName(name), Type: a.typ}
		switch a.typ {
		case "counter":
			fleet.Help = a.help + " (fleet sum)"
			for _, key := range a.order {
				sc := a.scalars[key]
				fleet.Samples = append(fleet.Samples, SampleLine{Labels: sc.labels, Value: sc.sum})
			}
		case "gauge":
			fleet.Help = a.help + " (fleet min/max/mean)"
			for _, key := range a.order {
				sc := a.scalars[key]
				for _, st := range []struct {
					stat string
					v    float64
				}{{"min", sc.min}, {"max", sc.max}, {"mean", sc.sum / float64(sc.n)}} {
					fleet.Samples = append(fleet.Samples, SampleLine{
						Labels: append(append([]Label(nil), sc.labels...), Label{Key: "stat", Value: st.stat}),
						Value:  st.v,
					})
				}
			}
		case "summary":
			fleet.Help = a.help + " (fleet merge)"
			for _, key := range a.order {
				ss := a.summaries[key]
				snap := ss.hist.Snapshot()
				for _, q := range quantiles {
					fleet.Samples = append(fleet.Samples, SampleLine{
						Labels: append(append([]Label(nil), ss.labels...),
							Label{Key: "quantile", Value: strconv.FormatFloat(q, 'g', -1, 64)}),
						Value: snap.Quantile(q).Seconds(),
					})
				}
				fleet.Samples = append(fleet.Samples,
					SampleLine{Suffix: "_sum", Labels: ss.labels, Value: ss.sum},
					SampleLine{Suffix: "_count", Labels: ss.labels, Value: float64(ss.count)})
			}
		}
		if len(fleet.Samples) > 0 {
			out = append(out, fleet)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// mergeSummaryNode folds one node's summary samples into the per-label-set
// accumulators. Quantile values stand in for a share of the node's count:
// q50 covers the lower half, each further quantile the slice up to it, and
// the top quantile the remaining tail — the coarse-grained inverse of a
// quantile readout, accurate to the source histogram's own resolution.
func mergeSummaryNode(acc map[string]*summarySeries, order *[]string, samples []SampleLine) {
	type nodeSeries struct {
		labels []Label
		qs     map[float64]float64
		sum    float64
		count  int64
	}
	series := make(map[string]*nodeSeries)
	var seen []string
	for _, s := range samples {
		base := s.without("quantile")
		key := labelKey(base)
		ns, ok := series[key]
		if !ok {
			ns = &nodeSeries{labels: base, qs: make(map[float64]float64)}
			series[key] = ns
			seen = append(seen, key)
		}
		switch s.Suffix {
		case "_sum":
			ns.sum = s.Value
		case "_count":
			ns.count = int64(s.Value)
		default:
			if q, err := strconv.ParseFloat(s.Get("quantile"), 64); err == nil {
				ns.qs[q] = s.Value
			}
		}
	}
	for _, key := range seen {
		ns := series[key]
		ss, ok := acc[key]
		if !ok {
			ss = &summarySeries{labels: ns.labels}
			acc[key] = ss
			*order = append(*order, key)
		}
		ss.sum += ns.sum
		ss.count += ns.count
		if ns.count == 0 || len(ns.qs) == 0 {
			continue
		}
		qs := make([]float64, 0, len(ns.qs))
		for q := range ns.qs {
			qs = append(qs, q)
		}
		sort.Float64s(qs)
		prev := 0.0
		remaining := ns.count
		for i, q := range qs {
			share := q - prev
			if i == len(qs)-1 {
				share = 1 - prev // the top quantile absorbs the tail
			}
			n := int64(share * float64(ns.count))
			if n > remaining {
				n = remaining
			}
			if i == len(qs)-1 {
				n = remaining // rounding leftovers land on the tail value
			}
			ss.hist.RecordN(time.Duration(ns.qs[q]*float64(time.Second)), n)
			remaining -= n
			prev = q
		}
	}
}
