package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Experiment names one runnable reproduction unit.
type Experiment struct {
	ID   string
	Name string
	Run  func(w io.Writer) error
}

func tableExp(id, name string, f func() (*Table, error)) Experiment {
	return Experiment{ID: id, Name: name, Run: func(w io.Writer) error {
		t, err := f()
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, t.Render())
		return err
	}}
}

func textExp(id, name string, f func() (string, error)) Experiment {
	return Experiment{ID: id, Name: name, Run: func(w io.Writer) error {
		s, err := f()
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, s)
		return err
	}}
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		textExp("E1", "fig1", Fig1Tree),
		textExp("E2", "fig2", func() (string, error) { return Fig2Layout(2) }),
		textExp("E3", "fig3", Fig3CycleID),
		textExp("E4", "fig4-5", Fig45ProcessorID),
		textExp("E5", "fig6", Fig6Broadcast),
		textExp("E6", "fig7", Fig7AscendMin),
		textExp("E7", "fig8-9", Fig89RBroadcast),
		tableExp("E8", "steps", StepsScaling),
		tableExp("E9", "speedup", Speedup),
		tableExp("E10", "slowdown", Slowdown),
		tableExp("E11", "links", Links),
		tableExp("E12", "capacity", Capacity),
		tableExp("E13", "crossval", CrossValidation),
		tableExp("E14", "greedy", GreedyGap),
		tableExp("E15", "virtualization", Virtualization),
		tableExp("E16", "robustness", PriorRobustness),
		tableExp("E17", "lookahead", LookaheadDepth),
		tableExp("E18", "budget", InstructionBudget),
		tableExp("E19", "benes", BenesRouting),
		tableExp("E20", "sorting", SortingOnCCC),
		tableExp("E21", "width", WidthScaling),
		tableExp("A1", "ablation-gather", AblationGather),
		tableExp("A2", "ablation-wavefront", AblationWavefront),
		tableExp("A3", "ablation-controlbits", AblationControlBits),
		tableExp("A4", "ablation-engines", AblationEngines),
	}
}

// Lookup finds an experiment by ID or name (case-sensitive); nil if absent.
func Lookup(key string) *Experiment {
	for _, e := range All() {
		if e.ID == key || e.Name == key {
			exp := e
			return &exp
		}
	}
	return nil
}

// Names returns the sorted set of valid -run keys.
func Names() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// RunAll executes every experiment, writing each section to w.
func RunAll(w io.Writer) error { return runAll(w, All()) }

// runAll runs exps in order, each section followed by a blank line.
func runAll(w io.Writer, exps []Experiment) error {
	for _, e := range exps {
		if err := e.Run(w); err != nil {
			return fmt.Errorf("experiments: %s (%s): %w", e.ID, e.Name, err)
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
