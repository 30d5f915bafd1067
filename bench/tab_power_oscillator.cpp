// Reproduces section 7's power analysis:
//  - oscillator power vs frequency (P ~ f^2): >= 20 MHz channel-shifting
//    tags pay > 1 mW for precision parts or accept ring-oscillator
//    drift; WiTAG's 50 kHz crystal costs a few microwatts end to end.
//  - footnote 4 made concrete: BER vs temperature offset for a tag timed
//    by a crystal vs a ring oscillator (the ring's 0.6%/C drift walks
//    the corruption windows out of their subframes).
#include <iostream>

#include "tag/power.hpp"
#include "witag/session.hpp"
#include "obs/report.hpp"
#include "util/cli.hpp"

int bench_main(const witag::util::Args& args) {
  witag::obs::RunScope obs_run("tab_power_oscillator", args);
  args.check();
  using namespace witag;

  std::cout << "=== Section 7: oscillator power and temperature ===\n\n";

  {
    core::Table table({"oscillator", "frequency", "power [uW]",
                       "whole-tag power [uW]"});
    const struct {
      tag::OscillatorKind kind;
      double hz;
      const char* name;
      const char* freq;
    } rows[] = {
        {tag::OscillatorKind::kCrystal, 50e3, "crystal (WiTAG)", "50 kHz"},
        {tag::OscillatorKind::kCrystal, 1e6, "crystal", "1 MHz"},
        {tag::OscillatorKind::kCrystal, 20e6, "precision osc", "20 MHz"},
        {tag::OscillatorKind::kRing, 20e6, "ring osc (HitchHike et al.)",
         "20 MHz"},
    };
    for (const auto& row : rows) {
      tag::ClockConfig clock;
      clock.kind = row.kind;
      clock.nominal_hz = row.hz;
      const double osc =
          tag::oscillator_power(row.kind, util::Hertz{row.hz}).microwatts();
      const double total =
          tag::estimate_power(clock, util::Hertz{20e3}).total().microwatts();
      table.add_row({row.name, row.freq, core::Table::num(osc, 2),
                     core::Table::num(total, 2)});
    }
    table.print(std::cout);
    std::cout << "\npaper anchors: 20 MHz precision oscillator > 1 mW; "
                 "20 MHz ring oscillator tens of uW; WiTAG's 50 kHz clock "
                 "leaves the whole tag at a few uW.\n\n";
  }

  {
    std::cout << "--- BER vs temperature offset (tag timer drift) ---\n"
              << "Tag 1 m from the client, 8 m LOS link; windows planned "
                 "on a 1 MHz timer.\n\n";
    core::Table table({"delta T [C]", "crystal BER", "ring-osc BER",
                       "ring drift [% of subframe by frame end]"});
    for (const double dt : {0.0, 1.0, 2.0, 5.0, 10.0}) {
      double bers[2];
      for (int kind = 0; kind < 2; ++kind) {
        auto cfg = core::los_testbed_config(util::Meters{1.0}, 90210);
        cfg.tag_device.clock.kind = kind == 0
                                        ? tag::OscillatorKind::kCrystal
                                        : tag::OscillatorKind::kRing;
        cfg.tag_device.clock.temperature_c = 25.0 + dt;
        core::Session session(cfg);
        bers[kind] = session.run(12).metrics.ber();
      }
      // Drift across the ~1.2 ms data region relative to a 16 us subframe.
      const double drift_pct = 0.006 * dt * 1200.0 / 16.0 * 100.0;
      table.add_row({core::Table::num(dt, 0), core::Table::num(bers[0], 4),
                     core::Table::num(bers[1], 4),
                     core::Table::num(drift_pct, 0)});
    }
    table.print(std::cout);
    std::cout << "\npaper-vs-measured: the crystal-timed tag is unaffected "
                 "by temperature; the ring-oscillator tag collapses within "
                 "a few degrees (footnote 4: 5 C shifts a ring oscillator "
                 "3%, here sliding late corruption windows whole subframes "
                 "off target).\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return witag::util::run_main("tab_power_oscillator", argc, argv, bench_main);
}
