package st

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Runtime errors.
var (
	ErrDivideByZero = errors.New("st: division by zero")
	ErrLoopBudget   = errors.New("st: loop iteration budget exceeded")
	ErrBadMember    = errors.New("st: unknown function block member")
)

// maxLoopIterations bounds any single loop per scan, so user logic cannot
// wedge the PLC scan cycle.
const maxLoopIterations = 1_000_000

// Env is the runtime state of a program: variable values and FB instances.
type Env struct {
	vars map[string]*Value
	fbs  map[string]FB
	prog *Program
	// Now is the scan timestamp, injected by the runtime so timers advance
	// deterministically in tests.
	Now time.Time
}

// NewEnv allocates runtime state for the program: variables get their
// declared initialisers (or zero values), FB-typed variables get instances.
func NewEnv(prog *Program) (*Env, error) {
	env := &Env{
		vars: make(map[string]*Value, len(prog.Vars)),
		fbs:  make(map[string]FB),
		prog: prog,
		Now:  time.Now(),
	}
	for _, d := range prog.Vars {
		if d.Type.IsFB() {
			env.fbs[d.Name] = newFB(d.Type)
			continue
		}
		v := ZeroOf(d.Type)
		if d.Init != nil {
			iv, err := env.eval(d.Init)
			if err != nil {
				return nil, fmt.Errorf("st: initialiser of %q: %w", d.Name, err)
			}
			v = coerce(iv, d.Type)
		}
		val := v
		env.vars[d.Name] = &val
	}
	return env, nil
}

func coerce(v Value, t TypeName) Value {
	switch t {
	case TypeBool:
		return BoolVal(v.AsBool())
	case TypeReal, TypeLReal:
		return RealVal(v.AsReal())
	case TypeTime:
		return TimeVal(v.AsTime())
	default:
		return IntVal(v.AsInt())
	}
}

// Set assigns a variable (runtime input injection). Unknown names error.
func (e *Env) Set(name string, v Value) error {
	slot, ok := e.vars[name]
	if !ok {
		return fmt.Errorf("st: set of undeclared variable %q", name)
	}
	if d := e.prog.FindVar(name); d != nil {
		v = coerce(v, d.Type)
	}
	*slot = v
	return nil
}

// Get reads a variable.
func (e *Env) Get(name string) (Value, bool) {
	slot, ok := e.vars[name]
	if !ok {
		return Value{}, false
	}
	return *slot, true
}

// GetFB returns a function-block instance (for inspecting Q/ET in tests).
func (e *Env) GetFB(name string) (FB, bool) {
	fb, ok := e.fbs[name]
	return fb, ok
}

// stop signals early termination of statement execution.
type stop int

const (
	stopNone stop = iota
	stopExit
	stopReturn
)

// Step executes one scan of the program body at the given instant.
func (e *Env) Step(now time.Time) error {
	e.Now = now
	_, err := e.exec(e.prog.Body)
	return err
}

func (e *Env) exec(body []Stmt) (stop, error) {
	for _, s := range body {
		switch x := s.(type) {
		case *AssignStmt:
			v, err := e.eval(x.Value)
			if err != nil {
				return stopNone, err
			}
			if err := e.assign(x.Target, v); err != nil {
				return stopNone, err
			}
		case *IfStmt:
			cond, err := e.eval(x.Cond)
			if err != nil {
				return stopNone, err
			}
			var branch []Stmt
			if cond.AsBool() {
				branch = x.Then
			} else {
				matched := false
				for _, elif := range x.Elifs {
					c, err := e.eval(elif.Cond)
					if err != nil {
						return stopNone, err
					}
					if c.AsBool() {
						branch = elif.Body
						matched = true
						break
					}
				}
				if !matched {
					branch = x.Else
				}
			}
			if st, err := e.exec(branch); err != nil || st != stopNone {
				return st, err
			}
		case *CaseStmt:
			sel, err := e.eval(x.Selector)
			if err != nil {
				return stopNone, err
			}
			selInt := sel.AsInt()
			var branch []Stmt = x.Else
			for _, c := range x.Cases {
				for _, label := range c.Values {
					if selInt >= label.Low && selInt <= label.High {
						branch = c.Body
						goto found
					}
				}
			}
		found:
			if st, err := e.exec(branch); err != nil || st != stopNone {
				return st, err
			}
		case *ForStmt:
			from, err := e.eval(x.From)
			if err != nil {
				return stopNone, err
			}
			to, err := e.eval(x.To)
			if err != nil {
				return stopNone, err
			}
			by := int64(1)
			if x.By != nil {
				bv, err := e.eval(x.By)
				if err != nil {
					return stopNone, err
				}
				by = bv.AsInt()
			}
			if by == 0 {
				return stopNone, fmt.Errorf("st: line %d: FOR step of zero", x.Line)
			}
			slot, ok := e.vars[x.Var]
			if !ok {
				return stopNone, fmt.Errorf("st: line %d: undeclared loop variable %q", x.Line, x.Var)
			}
			iters := 0
			for i := from.AsInt(); (by > 0 && i <= to.AsInt()) || (by < 0 && i >= to.AsInt()); i += by {
				*slot = IntVal(i)
				st, err := e.exec(x.Body)
				if err != nil {
					return stopNone, err
				}
				if st == stopExit {
					break
				}
				if st == stopReturn {
					return stopReturn, nil
				}
				if iters++; iters > maxLoopIterations {
					return stopNone, fmt.Errorf("line %d: %w", x.Line, ErrLoopBudget)
				}
			}
		case *WhileStmt:
			iters := 0
			for {
				cond, err := e.eval(x.Cond)
				if err != nil {
					return stopNone, err
				}
				if !cond.AsBool() {
					break
				}
				st, err := e.exec(x.Body)
				if err != nil {
					return stopNone, err
				}
				if st == stopExit {
					break
				}
				if st == stopReturn {
					return stopReturn, nil
				}
				if iters++; iters > maxLoopIterations {
					return stopNone, fmt.Errorf("line %d: %w", x.Line, ErrLoopBudget)
				}
			}
		case *RepeatStmt:
			iters := 0
			for {
				st, err := e.exec(x.Body)
				if err != nil {
					return stopNone, err
				}
				if st == stopExit {
					break
				}
				if st == stopReturn {
					return stopReturn, nil
				}
				cond, err := e.eval(x.Until)
				if err != nil {
					return stopNone, err
				}
				if cond.AsBool() {
					break
				}
				if iters++; iters > maxLoopIterations {
					return stopNone, fmt.Errorf("line %d: %w", x.Line, ErrLoopBudget)
				}
			}
		case *FBCallStmt:
			fb, ok := e.fbs[x.Instance]
			if !ok {
				return stopNone, fmt.Errorf("st: line %d: unknown FB instance %q", x.Line, x.Instance)
			}
			inputs := make(map[string]Value, len(x.Args))
			for _, a := range x.Args {
				v, err := e.eval(a.Value)
				if err != nil {
					return stopNone, err
				}
				inputs[a.Name] = v
			}
			if err := fb.Invoke(inputs, e.Now); err != nil {
				return stopNone, fmt.Errorf("st: line %d: %s: %w", x.Line, x.Instance, err)
			}
		case *ExitStmt:
			return stopExit, nil
		case *ReturnStmt:
			return stopReturn, nil
		}
	}
	return stopNone, nil
}

func (e *Env) assign(ref VarRef, v Value) error {
	if ref.Member != "" {
		fb, ok := e.fbs[ref.Name]
		if !ok {
			return fmt.Errorf("st: line %d: unknown FB instance %q", ref.Line, ref.Name)
		}
		return fb.SetMember(ref.Member, v, e.Now)
	}
	slot, ok := e.vars[ref.Name]
	if !ok {
		return fmt.Errorf("st: line %d: assignment to undeclared %q", ref.Line, ref.Name)
	}
	if d := e.prog.FindVar(ref.Name); d != nil {
		v = coerce(v, d.Type)
	}
	*slot = v
	return nil
}

func (e *Env) eval(expr Expr) (Value, error) {
	switch x := expr.(type) {
	case *Literal:
		return x.Val, nil
	case VarRef:
		if x.Member != "" {
			fb, ok := e.fbs[x.Name]
			if !ok {
				return Value{}, fmt.Errorf("st: line %d: unknown FB instance %q", x.Line, x.Name)
			}
			return fb.Member(x.Member)
		}
		slot, ok := e.vars[x.Name]
		if !ok {
			return Value{}, fmt.Errorf("st: line %d: undeclared variable %q", x.Line, x.Name)
		}
		return *slot, nil
	case *UnaryExpr:
		v, err := e.eval(x.X)
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case "NOT":
			return BoolVal(!v.AsBool()), nil
		case "-":
			if v.Kind == KindReal {
				return RealVal(-v.Real), nil
			}
			return IntVal(-v.AsInt()), nil
		}
		return Value{}, fmt.Errorf("st: line %d: bad unary op %q", x.Line, x.Op)
	case *BinaryExpr:
		return e.evalBinary(x)
	case *CallExpr:
		return e.evalCall(x)
	}
	return Value{}, fmt.Errorf("st: unknown expression %T", expr)
}

func (e *Env) evalBinary(x *BinaryExpr) (Value, error) {
	// Short-circuit booleans.
	if x.Op == "AND" || x.Op == "OR" {
		l, err := e.eval(x.Left)
		if err != nil {
			return Value{}, err
		}
		if x.Op == "AND" && !l.AsBool() {
			return BoolVal(false), nil
		}
		if x.Op == "OR" && l.AsBool() {
			return BoolVal(true), nil
		}
		r, err := e.eval(x.Right)
		if err != nil {
			return Value{}, err
		}
		return BoolVal(r.AsBool()), nil
	}
	l, err := e.eval(x.Left)
	if err != nil {
		return Value{}, err
	}
	r, err := e.eval(x.Right)
	if err != nil {
		return Value{}, err
	}
	real := l.Kind == KindReal || r.Kind == KindReal
	timey := l.Kind == KindTime && r.Kind == KindTime
	switch x.Op {
	case "XOR":
		return BoolVal(l.AsBool() != r.AsBool()), nil
	case "+":
		if timey {
			return TimeVal(l.Dur + r.Dur), nil
		}
		if real {
			return RealVal(l.AsReal() + r.AsReal()), nil
		}
		return IntVal(l.AsInt() + r.AsInt()), nil
	case "-":
		if timey {
			return TimeVal(l.Dur - r.Dur), nil
		}
		if real {
			return RealVal(l.AsReal() - r.AsReal()), nil
		}
		return IntVal(l.AsInt() - r.AsInt()), nil
	case "*":
		if real {
			return RealVal(l.AsReal() * r.AsReal()), nil
		}
		return IntVal(l.AsInt() * r.AsInt()), nil
	case "/":
		if real {
			if r.AsReal() == 0 {
				return Value{}, fmt.Errorf("line %d: %w", x.Line, ErrDivideByZero)
			}
			return RealVal(l.AsReal() / r.AsReal()), nil
		}
		if r.AsInt() == 0 {
			return Value{}, fmt.Errorf("line %d: %w", x.Line, ErrDivideByZero)
		}
		return IntVal(l.AsInt() / r.AsInt()), nil
	case "MOD":
		if r.AsInt() == 0 {
			return Value{}, fmt.Errorf("line %d: %w", x.Line, ErrDivideByZero)
		}
		return IntVal(l.AsInt() % r.AsInt()), nil
	case "**":
		return RealVal(math.Pow(l.AsReal(), r.AsReal())), nil
	case "=":
		return BoolVal(compare(l, r) == 0), nil
	case "<>":
		return BoolVal(compare(l, r) != 0), nil
	case "<":
		return BoolVal(compare(l, r) < 0), nil
	case "<=":
		return BoolVal(compare(l, r) <= 0), nil
	case ">":
		return BoolVal(compare(l, r) > 0), nil
	case ">=":
		return BoolVal(compare(l, r) >= 0), nil
	}
	return Value{}, fmt.Errorf("st: line %d: bad operator %q", x.Line, x.Op)
}

func compare(l, r Value) int {
	if l.Kind == KindBool && r.Kind == KindBool {
		switch {
		case l.Bool == r.Bool:
			return 0
		case l.Bool:
			return 1
		default:
			return -1
		}
	}
	lf, rf := l.AsReal(), r.AsReal()
	switch {
	case lf < rf:
		return -1
	case lf > rf:
		return 1
	default:
		return 0
	}
}

func (e *Env) evalCall(x *CallExpr) (Value, error) {
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := e.eval(a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	switch x.Func {
	case "ABS":
		if args[0].Kind == KindReal {
			return RealVal(math.Abs(args[0].Real)), nil
		}
		v := args[0].AsInt()
		if v < 0 {
			v = -v
		}
		return IntVal(v), nil
	case "SQRT":
		return RealVal(math.Sqrt(args[0].AsReal())), nil
	case "LN":
		return RealVal(math.Log(args[0].AsReal())), nil
	case "LOG":
		return RealVal(math.Log10(args[0].AsReal())), nil
	case "EXP":
		return RealVal(math.Exp(args[0].AsReal())), nil
	case "SIN":
		return RealVal(math.Sin(args[0].AsReal())), nil
	case "COS":
		return RealVal(math.Cos(args[0].AsReal())), nil
	case "TAN":
		return RealVal(math.Tan(args[0].AsReal())), nil
	case "MIN":
		out := args[0]
		for _, a := range args[1:] {
			if compare(a, out) < 0 {
				out = a
			}
		}
		return out, nil
	case "MAX":
		out := args[0]
		for _, a := range args[1:] {
			if compare(a, out) > 0 {
				out = a
			}
		}
		return out, nil
	case "LIMIT": // LIMIT(min, in, max)
		v := args[1]
		if compare(v, args[0]) < 0 {
			v = args[0]
		}
		if compare(v, args[2]) > 0 {
			v = args[2]
		}
		return v, nil
	case "SEL": // SEL(g, in0, in1)
		if args[0].AsBool() {
			return args[2], nil
		}
		return args[1], nil
	case "TRUNC":
		return IntVal(int64(args[0].AsReal())), nil
	case "ROUND":
		return IntVal(int64(math.Round(args[0].AsReal()))), nil
	case "INT_TO_REAL", "DINT_TO_REAL":
		return RealVal(args[0].AsReal()), nil
	case "REAL_TO_INT", "REAL_TO_DINT":
		return IntVal(int64(math.Round(args[0].AsReal()))), nil
	case "BOOL_TO_INT":
		return IntVal(args[0].AsInt()), nil
	case "INT_TO_BOOL":
		return BoolVal(args[0].AsBool()), nil
	case "TIME_TO_INT":
		return IntVal(args[0].AsInt()), nil
	case "INT_TO_TIME":
		return TimeVal(args[0].AsTime()), nil
	}
	return Value{}, fmt.Errorf("st: line %d: unknown function %q", x.Line, x.Func)
}
