package eval

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/forensics"
)

// The cross-attack evaluation matrix: every scenario in the
// related-attack library — the paper's neighbours — measured the same
// way the BLAP attacks are. Each (attack, channel) cell runs an
// independent campaign of hermetic worlds, counts attack successes, and
// replays each successful victim's own HCI dump through the incremental
// detector to measure whether and how early the attack's forensic rule
// fires. Rows are pure functions of (seed, attack, channel, trial), so
// the matrix is bit-identical at any worker count.

// attackPasskey is the fixed printed-label value the passkey scenarios
// use (matching cmd/btsim).
const attackPasskey uint32 = 428571

// AttackRow is one (attack, channel) cell of the matrix.
type AttackRow struct {
	Attack  string
	Channel string
	// PlanSpec is the channel's fault plan in the -faults mini-language.
	PlanSpec string
	Trials   int
	// Succeeded counts trials where the attack reached its goal. For the
	// passkey-guard mitigation row this is the attack's success against
	// the hardened protocol — a healthy build reports 0.
	Succeeded int
	// DetectorKind is the forensic rule expected on the victim's dump;
	// "-" when the attack is wire-indistinguishable from a legitimate
	// exchange and no rule can exist (OOB MITM, and the mitigation row
	// where the attack never completes).
	DetectorKind string
	// Detected counts successful trials whose victim dump raised
	// DetectorKind; MeanDetectFraction is the mean first-finding position
	// (frame/totalFrames) across them.
	Detected           int
	MeanDetectFraction float64
}

// attackSpec is one library entry: how to build its world, run it, and
// which victim capture carries its trace.
type attackSpec struct {
	name         string
	detectorKind string // "" = no rule exists
	options      func(plan faults.Plan) core.TestbedOptions
	// run executes the attack and returns (succeeded, victim device).
	run func(tb *core.Testbed) (bool, *device.Device)
}

func attackSpecs() []attackSpec {
	return []attackSpec{
		{
			name:         "stealtooth",
			detectorKind: forensics.FindingSilentRepairing,
			options: func(plan faults.Plan) core.TestbedOptions {
				// The accessory is the victim; it must carry a snoop channel.
				return core.TestbedOptions{ClientPlatform: device.AndroidAutomotive, Bond: true, Faults: plan}
			},
			run: func(tb *core.Testbed) (bool, *device.Device) {
				rep := core.RunStealtooth(tb.Sched, core.StealtoothConfig{
					Attacker: tb.A, Client: tb.C,
					VictimAddr: tb.M.Addr(), VictimCOD: tb.M.Platform.COD,
					OriginalKey: tb.BondKey,
				})
				return rep.RePaired && rep.KeyChanged, tb.C
			},
		},
		{
			name:         "happy-mitm",
			detectorKind: forensics.FindingSilentKeyChange,
			options: func(plan faults.Plan) core.TestbedOptions {
				return core.TestbedOptions{
					ClientPlatform: device.GalaxyS21Android11, Bond: true,
					VictimSilentBondedRepair: true, Faults: plan,
				}
			},
			run: func(tb *core.Testbed) (bool, *device.Device) {
				rep := core.RunHappyMitM(tb.Sched, core.HappyMitMConfig{
					Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
					OriginalKey: tb.BondKey,
				})
				return rep.KeyReplaced, tb.M
			},
		},
		{
			name:         "blurtooth",
			detectorKind: forensics.FindingKeyTypeDowngrade,
			options: func(plan faults.Plan) core.TestbedOptions {
				return core.TestbedOptions{
					ClientPlatform: device.GalaxyS21Android11,
					VictimCTKD:     true, VictimSilentBondedRepair: true, Faults: plan,
				}
			},
			run: func(tb *core.Testbed) (bool, *device.Device) {
				rep := core.RunBLURtooth(tb.Sched, core.BLURtoothConfig{
					Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
				})
				return rep.Downgraded, tb.M
			},
		},
		{
			name:         "oob-mitm",
			detectorKind: "", // wire-identical to a genuine OOB pairing
			options: func(plan faults.Plan) core.TestbedOptions {
				return core.TestbedOptions{Faults: plan}
			},
			run: func(tb *core.Testbed) (bool, *device.Device) {
				rep := core.RunOOBMITM(tb.Sched, core.OOBMITMConfig{
					Attacker: tb.A, Client: tb.C, Victim: tb.M,
				})
				return rep.MITMEstablished, tb.M
			},
		},
		{
			name:         "passkey-sniff",
			detectorKind: forensics.FindingSilentKeyChange,
			options: func(plan faults.Plan) core.TestbedOptions {
				printed := attackPasskey
				return core.TestbedOptions{ClientFixedPasskey: &printed, Faults: plan}
			},
			run: runPasskeyAttack,
		},
		{
			// The mitigation control: same sniff against the enhanced
			// protocol. The attack never completes, so there is no trace to
			// detect — Succeeded must stay 0.
			name:         "passkey-guard",
			detectorKind: "",
			options: func(plan faults.Plan) core.TestbedOptions {
				printed := attackPasskey
				return core.TestbedOptions{ClientFixedPasskey: &printed, EnhancedPasskey: true, Faults: plan}
			},
			run: runPasskeyAttack,
		},
	}
}

func runPasskeyAttack(tb *core.Testbed) (bool, *device.Device) {
	sniffer := core.NewAirSniffer(tb.Medium)
	printed := attackPasskey
	tb.MUser.TypedPasskey = &printed
	rep := core.RunPasskeySniff(tb.Sched, core.PasskeySniffConfig{
		Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
		Sniffer: sniffer, PrintedPasskey: printed,
	})
	return rep.Impersonated, tb.M
}

// attackChannels are the matrix's channel conditions.
func attackChannels() []DegradedSetting {
	return []DegradedSetting{
		{Label: "clean", Plan: faults.Plan{}},
		{Label: "5% loss", Plan: faults.Plan{Drop: 0.05}},
	}
}

// attackSample is one trial's measurement.
type attackSample struct {
	OK       bool
	Detected bool
	Fraction float64
}

// RunAttackMatrixWorkers measures every library attack under every
// channel condition with `trials` hermetic worlds per cell.
func RunAttackMatrixWorkers(seed int64, trials, workers int) ([]AttackRow, error) {
	specs := attackSpecs()
	channels := attackChannels()
	rows := make([]AttackRow, 0, len(specs)*len(channels))
	cfg := sweepCfg(workers)

	for _, spec := range specs {
		for _, ch := range channels {
			spec, ch := spec, ch
			row := AttackRow{
				Attack: spec.name, Channel: ch.Label, PlanSpec: ch.Plan.String(),
				Trials: trials, DetectorKind: spec.detectorKind,
			}
			if row.DetectorKind == "" {
				row.DetectorKind = "-"
			}
			domain := "attacks/" + spec.name + "/" + ch.Label
			samples, err := campaign.Run(context.Background(), trials, cfg,
				func(_ context.Context, i int) (attackSample, error) {
					s := campaign.DeriveSeed(seed, domain, i)
					tb, err := core.NewTestbed(s, spec.options(ch.Plan))
					if err != nil {
						// A world whose setup bond the channel ate is a failed
						// trial, not a matrix error.
						if core.IsChannelFault(err) {
							return attackSample{}, nil
						}
						return attackSample{}, err
					}
					ok, victim := spec.run(tb)
					sample := attackSample{OK: ok}
					if !ok || spec.detectorKind == "" || victim.Snoop == nil {
						return sample, nil
					}
					data, err := victim.Snoop.Bytes()
					if err != nil {
						return attackSample{}, err
					}
					first, frames, err := firstFinding(data, spec.detectorKind)
					if err != nil {
						return attackSample{}, err
					}
					if first > 0 && frames > 0 {
						sample.Detected = true
						sample.Fraction = float64(first) / float64(frames)
					}
					return sample, nil
				})
			if err != nil {
				return nil, fmt.Errorf("eval: attack matrix (%s, %s): %w", spec.name, ch.Label, err)
			}
			var sumFrac float64
			for _, s := range samples {
				if s.OK {
					row.Succeeded++
				}
				if s.Detected {
					row.Detected++
					sumFrac += s.Fraction
				}
			}
			if row.Detected > 0 {
				row.MeanDetectFraction = sumFrac / float64(row.Detected)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RunAttackMatrix is RunAttackMatrixWorkers with default workers.
func RunAttackMatrix(seed int64, trials int) ([]AttackRow, error) {
	return RunAttackMatrixWorkers(seed, trials, 0)
}

// RenderAttackMatrix formats the matrix as a table.
func RenderAttackMatrix(rows []AttackRow) string {
	var b strings.Builder
	b.WriteString("Cross-attack matrix (related-attack library; detection from the victim's own dump)\n")
	fmt.Fprintf(&b, "  %-14s %-8s %-12s %10s %-22s %10s %9s\n",
		"attack", "channel", "plan", "success", "detector rule", "detected", "detect@")
	for _, r := range rows {
		detectAt := "-"
		if r.Detected > 0 {
			detectAt = fmt.Sprintf("%.0f%%", 100*r.MeanDetectFraction)
		}
		plan := r.PlanSpec
		if plan == "" {
			plan = "-"
		}
		fmt.Fprintf(&b, "  %-14s %-8s %-12s %7d/%-2d %-22s %7d/%-2d %9s\n",
			r.Attack, r.Channel, plan,
			r.Succeeded, r.Trials,
			r.DetectorKind,
			r.Detected, r.Succeeded,
			detectAt)
	}
	return b.String()
}
