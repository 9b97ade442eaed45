package experiments

import (
	"fmt"
	"io"
)

// Runner names one experiment and produces its printable result.
type Runner struct {
	Name string
	Run  func(*Context) (fmt.Stringer, error)
}

// wrap adapts a typed experiment function to the Runner signature.
func wrap[T fmt.Stringer](fn func(*Context) (T, error)) func(*Context) (fmt.Stringer, error) {
	return func(ctx *Context) (fmt.Stringer, error) {
		r, err := fn(ctx)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// Runners lists every experiment in paper order.
func Runners() []Runner {
	return []Runner{
		{"fig2", wrap(Fig2)},
		{"fig3", wrap(Fig3)},
		{"fig5", wrap(Fig5)},
		{"fig6", wrap(Fig6)},
		{"fig7", wrap(Fig7)},
		{"fig8", wrap(Fig8)},
		{"table1", wrap(TableI)},
		{"table2", wrap(TableII)},
		{"table3", wrap(TableIII)},
		{"table4", wrap(TableIV)},
		{"table5", wrap(TableV)},
		{"table6", wrap(TableVI)},
		{"table7", wrap(TableVII)},
		{"ablation-combine", wrap(AblationCombine)},
		{"ablation-optimization", wrap(AblationOptimization)},
		{"ablation-detector", wrap(AblationDetector)},
	}
}

// RunAll executes every experiment, writing each rendered result to w.
func RunAll(ctx *Context, w io.Writer) error {
	for _, r := range Runners() {
		res, err := r.Run(ctx)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", r.Name, err)
		}
		if _, err := fmt.Fprintf(w, "==== %s ====\n%s\n", r.Name, res); err != nil {
			return err
		}
	}
	return nil
}

// RunOne executes a single named experiment.
func RunOne(ctx *Context, name string, w io.Writer) error {
	for _, r := range Runners() {
		if r.Name != name {
			continue
		}
		res, err := r.Run(ctx)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", r.Name, err)
		}
		_, err = fmt.Fprintf(w, "==== %s ====\n%s\n", r.Name, res)
		return err
	}
	return fmt.Errorf("experiments: unknown experiment %q", name)
}

// Names lists the available experiment names.
func Names() []string {
	rs := Runners()
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name
	}
	return out
}
