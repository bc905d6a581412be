package main

import (
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/device"
)

// scenario is one attack run the campaign workload's tables are made
// of, rebuilt here so the traced run can time core.NewTestbed and the
// core.Run* call apart, on the clean channel.
type scenario struct {
	name string
	opts func() core.TestbedOptions
	run  func(tb *core.Testbed, trial int)
}

// probePasskey is the printed passkey of the passkey scenarios.
const probePasskey uint32 = 428571

func scenarios() []scenario {
	victim := device.TableIIPlatforms()[0].Platform
	passkey := func(tb *core.Testbed, _ int) {
		printed := probePasskey
		tb.MUser.TypedPasskey = &printed
		core.RunPasskeySniff(tb.Sched, core.PasskeySniffConfig{
			Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
			Sniffer: core.NewAirSniffer(tb.Medium), PrintedPasskey: printed,
		})
	}
	fixed := func(enhanced bool) func() core.TestbedOptions {
		return func() core.TestbedOptions {
			printed := probePasskey
			return core.TestbedOptions{ClientFixedPasskey: &printed, EnhancedPasskey: enhanced}
		}
	}
	return []scenario{
		{"baseline-mitm", func() core.TestbedOptions { return core.TestbedOptions{VictimPlatform: victim} },
			func(tb *core.Testbed, _ int) {
				core.RunBaselineMITM(tb.Sched, core.BaselineMITMConfig{
					Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
				})
			}},
		{"page-blocking", func() core.TestbedOptions { return core.TestbedOptions{VictimPlatform: victim} },
			func(tb *core.Testbed, trial int) {
				core.RunPageBlocking(tb.Sched, core.PageBlockingConfig{
					Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
					UsePLOC: true, UserPairDelay: time.Duration(2+trial%6) * time.Second,
				})
			}},
		{"stealtooth", func() core.TestbedOptions {
			return core.TestbedOptions{ClientPlatform: device.AndroidAutomotive, Bond: true}
		}, func(tb *core.Testbed, _ int) {
			core.RunStealtooth(tb.Sched, core.StealtoothConfig{
				Attacker: tb.A, Client: tb.C, VictimAddr: tb.M.Addr(), VictimCOD: tb.M.Platform.COD,
				OriginalKey: tb.BondKey,
			})
		}},
		{"happy-mitm", func() core.TestbedOptions {
			return core.TestbedOptions{ClientPlatform: device.GalaxyS21Android11, Bond: true, VictimSilentBondedRepair: true}
		}, func(tb *core.Testbed, _ int) {
			core.RunHappyMitM(tb.Sched, core.HappyMitMConfig{
				Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser, OriginalKey: tb.BondKey,
			})
		}},
		{"blurtooth", func() core.TestbedOptions {
			return core.TestbedOptions{ClientPlatform: device.GalaxyS21Android11, VictimCTKD: true, VictimSilentBondedRepair: true}
		}, func(tb *core.Testbed, _ int) {
			core.RunBLURtooth(tb.Sched, core.BLURtoothConfig{Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser})
		}},
		{"oob-mitm", func() core.TestbedOptions { return core.TestbedOptions{} },
			func(tb *core.Testbed, _ int) {
				core.RunOOBMITM(tb.Sched, core.OOBMITMConfig{Attacker: tb.A, Client: tb.C, Victim: tb.M})
			}},
		{"passkey-sniff", fixed(false), passkey},
		{"passkey-guard", fixed(true), passkey},
	}
}

// scenarioProbe is the cost of one scenario over its trials.
type scenarioProbe struct {
	testbedUS []float64 // core.NewTestbed per trial
	runUS     []float64 // the core.Run* call per trial
	steps     uint64    // simulator steps over all trials, set-up included
}

// probeScenario runs trials serial worlds of one scenario.
func probeScenario(sc scenario, seed int64, trials int) (scenarioProbe, error) {
	var p scenarioProbe
	for i := 0; i < trials; i++ {
		t0 := time.Now()
		tb, err := core.NewTestbed(campaign.DeriveSeed(seed, "perfbench/"+sc.name, i), sc.opts())
		if err != nil {
			return p, err
		}
		t1 := time.Now()
		sc.run(tb, i)
		t2 := time.Now()
		p.testbedUS = append(p.testbedUS, float64(t1.Sub(t0))/1e3)
		p.runUS = append(p.runUS, float64(t2.Sub(t1))/1e3)
		p.steps += tb.Sched.Steps()
	}
	return p, nil
}
