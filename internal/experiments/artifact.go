// The experiment catalog: every table and figure of the evaluation as a
// named, runnable artifact. cmd/experiments and the nocd daemon both
// dispatch through RunExperiment, so an experiment served over HTTP is
// the same code path — and therefore the same bytes — as one run from
// the CLI.
package experiments

import (
	"fmt"
	"slices"
	"strings"
)

// Artifact is one named experiment's complete output: the rendered text
// the CLI prints and the CSV files it would write with -csv, keyed by
// file name.
type Artifact struct {
	Name  string            `json:"name"`
	Scale string            `json:"scale"`
	Text  string            `json:"text"`
	CSVs  map[string]string `json:"csvs,omitempty"`
}

// Files lists the artifact's CSV file names in order.
func (a *Artifact) Files() []string {
	files := make([]string, 0, len(a.CSVs))
	for f := range a.CSVs {
		files = append(files, f)
	}
	slices.Sort(files)
	return files
}

// say appends one rendered block to the artifact's text.
func (a *Artifact) say(s string) { a.Text += s + "\n" }

// ScaleName renders a Scale the way specs spell it.
func ScaleName(s Scale) string {
	if s == Quick {
		return "quick"
	}
	return "full"
}

// ParseScale is ScaleName's inverse.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "", "quick":
		return Quick, nil
	case "full":
		return Full, nil
	}
	return Quick, fmt.Errorf("unknown scale %q (want quick or full)", name)
}

// catalog is every experiment in canonical order — the CLI's "all" run
// and the daemon's catalog listing both use it. run fills in the
// artifact's text (say) and CSVs.
var catalog = []struct {
	name    string
	aliases []string
	run     func(s Scale, a *Artifact)
}{
	{name: "table5", run: func(s Scale, a *Artifact) { a.say(RunTable5(s).Render()) }},
	{name: "fig10", run: func(s Scale, a *Artifact) { a.say(RunFig10(s).Render()) }},
	{name: "fig11", run: func(s Scale, a *Artifact) {
		r := RunFig11(s)
		a.say(r.Render())
		a.CSVs["fig11.csv"] = r.CSV()
	}},
	{name: "fig12", run: func(s Scale, a *Artifact) { a.say(RunSpecInt(s, true).Render()) }},
	{name: "fig13", run: func(s Scale, a *Artifact) { a.say(RunSpecInt(s, false).Render()) }},
	{name: "table6", run: func(s Scale, a *Artifact) { a.say(RunTable6(s).Render()) }},
	{name: "table7+fig14+table8", aliases: []string{"table7", "fig14", "table8"},
		run: func(s Scale, a *Artifact) {
			t7 := RunTable7(s)
			a.say(t7.Render())
			a.say(RunFig14(s, &t7).Render())
			a.say(RunTable8(s, &t7).Render())
			a.CSVs["table7.csv"] = t7.CSV()
			a.CSVs["fig14_probes.csv"] = t7.ProbeCSV()
		}},
	{name: "scaleup", run: func(s Scale, a *Artifact) { a.say(RunScaleUp(s).Render()) }},
	{name: "area", run: func(s Scale, a *Artifact) { a.say(RunAreaReport(s).Render()) }},
	{name: "fabrics", run: func(s Scale, a *Artifact) {
		r := RunFabricComparison(s)
		a.say(r.Render())
		a.CSVs["fabrics.csv"] = r.CSV()
	}},
	{name: "replay", run: func(s Scale, a *Artifact) { a.say(RunLayerReplay(s).Render()) }},
	{name: "ablations", run: func(s Scale, a *Artifact) {
		a.say(RunAblationBufferless(s).Render())
		a.say(RunAblationHalfFull(s).Render())
		a.say(RunAblationWireFabric(s).Render())
		a.say(RunAblationSwap(s).Render())
		a.say(RunAblationTags(s).Render())
		a.say(RunAblationThrottle(s).Render())
	}},
	{name: "resilience", run: func(s Scale, a *Artifact) {
		r := RunResilience(s)
		a.say(r.Render())
		a.CSVs["resilience.csv"] = r.CSV()
	}},
}

// ExperimentNames returns the catalog in canonical order.
func ExperimentNames() []string {
	names := make([]string, len(catalog))
	for i := range catalog {
		names[i] = catalog[i].name
	}
	return names
}

// CanonicalExperiment validates an experiment name without running it,
// resolving the table7/fig14/table8 aliases to their combined artifact.
func CanonicalExperiment(name string) (string, error) {
	i, err := lookupExperiment(name)
	if err != nil {
		return "", err
	}
	return catalog[i].name, nil
}

// lookupExperiment finds name, or one of its aliases, in the catalog.
func lookupExperiment(name string) (int, error) {
	for i := range catalog {
		if catalog[i].name == name || slices.Contains(catalog[i].aliases, name) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown experiment %q; choose from %s",
		name, strings.Join(ExperimentNames(), ", "))
}

// RunExperiment runs one named experiment from the catalog. The aliases
// table7, fig14 and table8 resolve to their combined artifact, exactly
// as the CLI treats them.
func RunExperiment(name string, scale Scale) (*Artifact, error) {
	i, err := lookupExperiment(name)
	if err != nil {
		return nil, err
	}
	a := &Artifact{Name: catalog[i].name, Scale: ScaleName(scale), CSVs: map[string]string{}}
	catalog[i].run(scale, a)
	for file, data := range a.CSVs {
		if data == "" {
			delete(a.CSVs, file)
		}
	}
	return a, nil
}
