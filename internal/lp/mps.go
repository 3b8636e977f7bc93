package lp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"hiopt/internal/linexpr"
)

// WriteMPS renders a compiled problem in free-format MPS so instances
// can be exported to external solvers and committed as fixtures. The
// encoding is faithful: a maximization compiled with Negated=true is
// written as OBJSENSE MAX with the original (de-negated) coefficients,
// the objective constant rides on the objective's RHS entry with the
// conventional sign flip, and integer variables are fenced by INTORG /
// INTEND markers. Variable and row names are kept when they are
// MPS-safe (nonempty, unique, no whitespace or '$'); otherwise
// canonical x<j> / r<i> names are substituted.
func WriteMPS(w io.Writer, c *linexpr.Compiled, name string) error {
	bw := bufio.NewWriter(w)
	vn := mpsNames("x", varNameList(c))
	rn := mpsNames("r", rowNameList(c))

	sign := 1.0
	sense := "MIN"
	if c.Negated {
		sign = -1
		sense = "MAX"
	}

	fmt.Fprintf(bw, "NAME          %s\n", name)
	fmt.Fprintf(bw, "OBJSENSE\n    %s\n", sense)
	fmt.Fprintln(bw, "ROWS")
	fmt.Fprintln(bw, " N  COST")
	for i, r := range c.Rows {
		var s string
		switch r.Sense {
		case linexpr.LE:
			s = "L"
		case linexpr.GE:
			s = "G"
		case linexpr.EQ:
			s = "E"
		default:
			return fmt.Errorf("lp: row %d has unknown sense %v", i, r.Sense)
		}
		fmt.Fprintf(bw, " %s  %s\n", s, rn[i])
	}

	fmt.Fprintln(bw, "COLUMNS")
	inInt := false
	marker := 0
	for j := 0; j < c.NumVars; j++ {
		if c.Integer[j] != inInt {
			kind := "'INTORG'"
			if inInt {
				kind = "'INTEND'"
			}
			fmt.Fprintf(bw, "    MARKER%d  'MARKER'  %s\n", marker, kind)
			marker++
			inInt = c.Integer[j]
		}
		wrote := false
		if c.Obj[j] != 0 {
			fmt.Fprintf(bw, "    %s  COST  %s\n", vn[j], mpsNum(sign*c.Obj[j]))
			wrote = true
		}
		for i, r := range c.Rows {
			if r.Coefs[j] != 0 {
				fmt.Fprintf(bw, "    %s  %s  %s\n", vn[j], rn[i], mpsNum(r.Coefs[j]))
				wrote = true
			}
		}
		if !wrote {
			// Declare empty columns with an explicit zero so any reader
			// still sees the variable.
			fmt.Fprintf(bw, "    %s  COST  0\n", vn[j])
		}
	}
	if inInt {
		fmt.Fprintf(bw, "    MARKER%d  'MARKER'  'INTEND'\n", marker)
	}

	fmt.Fprintln(bw, "RHS")
	if c.ObjConst != 0 {
		fmt.Fprintf(bw, "    RHS  COST  %s\n", mpsNum(-sign*c.ObjConst))
	}
	for i, r := range c.Rows {
		if r.RHS != 0 {
			fmt.Fprintf(bw, "    RHS  %s  %s\n", rn[i], mpsNum(r.RHS))
		}
	}

	fmt.Fprintln(bw, "BOUNDS")
	for j := 0; j < c.NumVars; j++ {
		lo, hi := c.Lo[j], c.Hi[j]
		switch {
		case lo == 0 && hi == 1 && c.Integer[j]:
			fmt.Fprintf(bw, " BV BND  %s\n", vn[j])
		case lo == hi:
			fmt.Fprintf(bw, " FX BND  %s  %s\n", vn[j], mpsNum(lo))
		default:
			// A zero lower bound is the default and is left out, except
			// below a negative upper bound: a reader pulls an unstated
			// lower bound to -inf there.
			if math.IsInf(lo, -1) {
				fmt.Fprintf(bw, " MI BND  %s\n", vn[j])
			} else if lo != 0 || hi < 0 {
				fmt.Fprintf(bw, " LO BND  %s  %s\n", vn[j], mpsNum(lo))
			}
			if math.IsInf(hi, 1) {
				fmt.Fprintf(bw, " PL BND  %s\n", vn[j])
			} else {
				fmt.Fprintf(bw, " UP BND  %s  %s\n", vn[j], mpsNum(hi))
			}
		}
	}
	fmt.Fprintln(bw, "ENDATA")
	return bw.Flush()
}

// ReadMPS parses the free-format MPS subset emitted by WriteMPS (NAME,
// OBJSENSE, ROWS, COLUMNS with integrality markers, RHS, BOUNDS,
// ENDATA — no RANGES) back into a compiled problem. It exists for
// round-trip fixtures and ingesting instances produced by this package,
// not as a general MPS front end.
func ReadMPS(r io.Reader) (*linexpr.Compiled, error) {
	c := &linexpr.Compiled{}
	rowIdx := map[string]int{}
	varIdx := map[string]int{}
	var explicitLo []bool
	maximize := false

	addVar := func(name string, integer bool) int {
		if j, ok := varIdx[name]; ok {
			return j
		}
		j := c.NumVars
		varIdx[name] = j
		c.NumVars++
		c.Obj = append(c.Obj, 0)
		c.Lo = append(c.Lo, 0)
		c.Hi = append(c.Hi, math.Inf(1))
		c.Integer = append(c.Integer, integer)
		c.Names = append(c.Names, name)
		explicitLo = append(explicitLo, false)
		for i := range c.Rows {
			c.Rows[i].Coefs = append(c.Rows[i].Coefs, 0)
		}
		return j
	}

	section := ""
	inInt := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "*") {
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		// Section headers start in column 1 (no leading whitespace).
		if line[0] != ' ' && line[0] != '\t' {
			section = f[0]
			if section == "ENDATA" {
				break
			}
			continue
		}
		switch section {
		case "OBJSENSE":
			maximize = strings.EqualFold(f[0], "MAX") || strings.EqualFold(f[0], "MAXIMIZE")
		case "ROWS":
			if len(f) != 2 {
				return nil, fmt.Errorf("lp: mps line %d: malformed ROWS entry", lineNo)
			}
			var s linexpr.Sense
			switch f[0] {
			case "N":
				continue // objective row
			case "L":
				s = linexpr.LE
			case "G":
				s = linexpr.GE
			case "E":
				s = linexpr.EQ
			default:
				return nil, fmt.Errorf("lp: mps line %d: unknown row type %q", lineNo, f[0])
			}
			rowIdx[f[1]] = len(c.Rows)
			c.Rows = append(c.Rows, linexpr.CompiledRow{Name: f[1], Sense: s, Coefs: make([]float64, c.NumVars)})
		case "COLUMNS":
			if len(f) >= 3 && f[1] == "'MARKER'" {
				switch f[2] {
				case "'INTORG'":
					inInt = true
				case "'INTEND'":
					inInt = false
				}
				continue
			}
			if len(f) < 3 || len(f)%2 == 0 {
				return nil, fmt.Errorf("lp: mps line %d: malformed COLUMNS entry", lineNo)
			}
			j := addVar(f[0], inInt)
			for k := 1; k+1 < len(f); k += 2 {
				v, err := strconv.ParseFloat(f[k+1], 64)
				if err != nil {
					return nil, fmt.Errorf("lp: mps line %d: %v", lineNo, err)
				}
				if f[k] == "COST" {
					c.Obj[j] += v
				} else if i, ok := rowIdx[f[k]]; ok {
					c.Rows[i].Coefs[j] += v
				} else {
					return nil, fmt.Errorf("lp: mps line %d: unknown row %q", lineNo, f[k])
				}
			}
		case "RHS":
			if len(f) < 3 || len(f)%2 == 0 {
				return nil, fmt.Errorf("lp: mps line %d: malformed RHS entry", lineNo)
			}
			for k := 1; k+1 < len(f); k += 2 {
				v, err := strconv.ParseFloat(f[k+1], 64)
				if err != nil {
					return nil, fmt.Errorf("lp: mps line %d: %v", lineNo, err)
				}
				if f[k] == "COST" {
					c.ObjConst = -v
				} else if i, ok := rowIdx[f[k]]; ok {
					c.Rows[i].RHS = v
				} else {
					return nil, fmt.Errorf("lp: mps line %d: unknown row %q", lineNo, f[k])
				}
			}
		case "BOUNDS":
			if len(f) < 3 {
				return nil, fmt.Errorf("lp: mps line %d: malformed BOUNDS entry", lineNo)
			}
			j, ok := varIdx[f[2]]
			if !ok {
				return nil, fmt.Errorf("lp: mps line %d: bound on unknown variable %q", lineNo, f[2])
			}
			var v float64
			if len(f) >= 4 {
				var err error
				if v, err = strconv.ParseFloat(f[3], 64); err != nil {
					return nil, fmt.Errorf("lp: mps line %d: %v", lineNo, err)
				}
			}
			switch f[0] {
			case "UP":
				c.Hi[j] = v
				// Classic MPS quirk: an upper bound below an unset lower
				// bound pulls the lower bound to -inf. Only when LO was
				// never stated.
				if v < 0 && !explicitLo[j] {
					c.Lo[j] = math.Inf(-1)
				}
			case "LO":
				c.Lo[j] = v
				explicitLo[j] = true
			case "FX":
				c.Lo[j], c.Hi[j] = v, v
				explicitLo[j] = true
			case "BV":
				c.Lo[j], c.Hi[j] = 0, 1
				c.Integer[j] = true
				explicitLo[j] = true
			case "MI":
				c.Lo[j] = math.Inf(-1)
				explicitLo[j] = true
			case "PL":
				c.Hi[j] = math.Inf(1)
			default:
				return nil, fmt.Errorf("lp: mps line %d: unknown bound type %q", lineNo, f[0])
			}
		case "NAME", "":
			// NAME body lines (none expected) are ignored.
		default:
			return nil, fmt.Errorf("lp: mps line %d: unsupported section %q", lineNo, section)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if maximize {
		c.Negated = true
		for j := range c.Obj {
			c.Obj[j] = -c.Obj[j]
		}
		c.ObjConst = -c.ObjConst
	}
	return c, nil
}

func varNameList(c *linexpr.Compiled) []string {
	out := make([]string, c.NumVars)
	copy(out, c.Names)
	return out
}

func rowNameList(c *linexpr.Compiled) []string {
	out := make([]string, len(c.Rows))
	for i, r := range c.Rows {
		out[i] = r.Name
	}
	return out
}

// mpsNames returns MPS-safe names: originals when nonempty, unique,
// free of whitespace/'$', and not colliding with the reserved COST/RHS/
// BND/MARKER words; canonical prefix-indexed names otherwise.
func mpsNames(prefix string, orig []string) []string {
	out := make([]string, len(orig))
	seen := map[string]bool{"COST": true, "RHS": true, "BND": true}
	ok := true
	for _, n := range orig {
		if n == "" || strings.ContainsAny(n, " \t$'") || seen[n] || strings.HasPrefix(n, "MARKER") {
			ok = false
			break
		}
		seen[n] = true
	}
	for i, n := range orig {
		if ok {
			out[i] = n
		} else {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
	}
	return out
}

// mpsNum formats a coefficient with enough digits to round-trip a
// float64 exactly.
func mpsNum(v float64) string {
	return strconv.FormatFloat(v, 'g', 17, 64)
}
