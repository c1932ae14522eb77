package assembly

import "fmt"

// componentIterator is the assembly operator's companion routine
// (Section 5): it interprets the template against a fetched or adopted
// component to determine "what part of a complex object to assemble,
// when assembly is complete [and] how to find unresolved references
// within a newly retrieved object."
type componentIterator struct {
	op *Operator
}

// discover walks one instance (and, for adopted subtrees, its resolved
// descendants) collecting the unresolved references the scheduler
// should see, in left-to-right field order.
//
// abortOnRequiredNil applies the freshly-fetched semantics: a nil
// reference under a Required template child abandons the complex
// object. Adopted (pre-assembled) subtrees skip that check — their
// absent children were vetted when they were first assembled.
//
// It returns (refs, aborted, err).
func (ci componentIterator) discover(item *workItem, root *Instance, deep, abortOnRequiredNil bool) ([]*Ref, bool, error) {
	var refs []*Ref
	var werr error
	aborted := false

	var visit func(in *Instance)
	visit = func(in *Instance) {
		if werr != nil || aborted {
			return
		}
		for slot, ct := range in.Node.Children {
			if in.Children[slot] != nil {
				if deep {
					visit(in.Children[slot])
				}
				continue
			}
			if ct.RefField >= len(in.Object.Refs) {
				if abortOnRequiredNil && ct.Required {
					aborted = true
					return
				}
				continue
			}
			oid := in.Object.Refs[ct.RefField]
			if oid.IsNil() {
				count(&ci.op.probe.stats.NilRefs, ci.op.probe.nilRefs)
				if abortOnRequiredNil && ct.Required {
					aborted = true
					return
				}
				continue
			}
			r, err := ci.op.prepareRef(item, in, slot, ct, oid)
			if err != nil {
				werr = err
				return
			}
			refs = append(refs, r)
		}
	}
	visit(root)
	if werr != nil {
		return nil, false, werr
	}
	if aborted {
		return nil, true, nil
	}
	return refs, false, nil
}

// complete reports whether the item's assembly has finished: no
// pending references and a root in place.
func (ci componentIterator) complete(item *workItem) bool {
	return item.pending == 0 && item.root != nil
}

// String identifies the component iterator in diagnostics.
func (ci componentIterator) String() string {
	return fmt.Sprintf("component-iterator(template %q)", ci.op.Template.Name)
}
