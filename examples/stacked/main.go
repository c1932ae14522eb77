// Stacked assembly (paper Section 7, Figure 17): combining bottom-up
// and top-down assembly by stacking two assembly operators. The first
// operator assembles the B–D sub-objects of every complex object
// bottom-up; the second fetches the A and C objects top-down and links
// them with the sub-assemblies instead of refetching.
package main

import (
	"fmt"
	"log"

	"revelation"
	"revelation/internal/assembly"
	"revelation/internal/gen"
	"revelation/internal/volcano"
)

func main() {
	// The paper's benchmark database: 3-level binary complex objects
	// under inter-object clustering.
	db, err := gen.Build(gen.Config{
		NumComplexObjects: 800,
		Clustering:        gen.InterObject,
		Seed:              21,
	})
	if err != nil {
		log.Fatal(err)
	}

	full := db.Template     // A -> (B, C), B -> (D, E), C -> (F, G)
	sub := full.Children[0] // the B subtree

	// Sub-roots for the bottom-up pass: the B component of each tree.
	var subRoots []volcano.Item
	for _, root := range db.Roots {
		o, err := db.Store.Get(root)
		if err != nil {
			log.Fatal(err)
		}
		subRoots = append(subRoots, o.Refs[0])
	}
	if err := db.Pool.EvictAll(); err != nil {
		log.Fatal(err)
	}
	dev0 := db.Device.Stats()

	plan, err := assembly.NewStacked(assembly.StackedConfig{
		Store:    db.Store,
		Full:     full,
		Sub:      sub,
		SubRoots: volcano.NewSlice(subRoots),
		// The upward link from a B sub-assembly to its enclosing
		// complex object's root; a real system would keep this in an
		// index or a back-reference field.
		EnclosingRoot: func(in *assembly.Instance) (revelation.OID, error) {
			return db.RootOf[in.OID()], nil
		},
		BottomUp: assembly.Options{Window: 25, Scheduler: assembly.Elevator},
		TopDown:  assembly.Options{Window: 25, Scheduler: assembly.Elevator},
	})
	if err != nil {
		log.Fatal(err)
	}

	items, err := volcano.Drain(plan)
	if err != nil {
		log.Fatal(err)
	}
	stacked := db.Device.Stats().Sub(dev0)

	// Verify every complex object is complete and correctly swizzled.
	for _, it := range items {
		inst := it.(*revelation.Instance)
		if inst.Size() != 7 {
			log.Fatalf("complex object %v has %d components", inst.OID(), inst.Size())
		}
		inst.Walk(func(in *revelation.Instance) {
			for slot, ct := range in.Node.Children {
				if in.Children[slot].OID() != in.Object.Refs[ct.RefField] {
					log.Fatalf("bad swizzle under %v", in.OID())
				}
			}
		})
	}
	fmt.Printf("stacked assembly (Fig. 17): %d complex objects via bottom-up B/D pass + top-down A/C pass\n", len(items))
	fmt.Printf("  %d reads, avg seek %.1f pages\n", stacked.Reads, stacked.AvgSeekPerRead())

	// Compare with a single top-down operator doing everything.
	if err := db.Pool.EvictAll(); err != nil {
		log.Fatal(err)
	}
	dev0 = db.Device.Stats()
	roots := make([]volcano.Item, len(db.Roots))
	for i, r := range db.Roots {
		roots[i] = r
	}
	single := assembly.New(volcano.NewSlice(roots), db.Store, full,
		assembly.Options{Window: 25, Scheduler: assembly.Elevator})
	n, err := volcano.Count(single)
	if err != nil {
		log.Fatal(err)
	}
	st := db.Device.Stats().Sub(dev0)
	fmt.Printf("single top-down operator:   %d complex objects, %d reads, avg seek %.1f pages\n",
		n, st.Reads, st.AvgSeekPerRead())
	fmt.Println("\nboth plans produce the same complex objects; stacking exists for plans")
	fmt.Println("that need bottom-up order (e.g. when sub-objects arrive from another operator).")
}
