//! Benches of the experiment pipeline: calibration, the BIST run (healthy
//! vs defective with stop-on-detection), and the analysis kernels.
//!
//! `harness = false`: this is a plain program on the in-repo
//! [`symbist_bench::harness`]. Pass `--quick` for a fast smoke run.

use symbist_bench::harness::Harness;

use symbist::calibrate::Calibration;
use symbist::session::{Schedule, SymBist};
use symbist::stimulus::StimulusSpec;
use symbist_adc::fault::{DefectKind, DefectSite, Faultable};
use symbist_adc::{AdcConfig, BlockKind, SarAdc};
use symbist_analysis::dynamic::{analyze_sine, quantized_sine};
use symbist_analysis::fft::{fft_real, hann_window, power_spectrum};

fn engine() -> SymBist {
    let cfg = AdcConfig::default();
    let stimulus = StimulusSpec::default();
    let cal = Calibration::run(&cfg, &stimulus, 6, 5.0, 42);
    SymBist::new(cal, stimulus, Schedule::Sequential)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut h = if quick {
        Harness::quick()
    } else {
        Harness::new()
    };

    let bist = engine();
    let healthy = SarAdc::new(AdcConfig::default());
    h.bench("bist_run_healthy_full", || {
        bist.try_run(&healthy, false)
            .expect("BIST run simulates")
            .pass
    });

    let mut defective = healthy.clone();
    let site = defective
        .components()
        .iter()
        .position(|comp| comp.block == BlockKind::VcmGenerator)
        .unwrap();
    defective.inject(DefectSite {
        component: site,
        kind: DefectKind::Short,
    });
    h.bench("bist_run_defective_stop_on_detect", || {
        bist.try_run(&defective, true)
            .expect("BIST run simulates")
            .pass
    });

    let cfg = AdcConfig::default();
    h.bench("calibration_2_samples", || {
        Calibration::run(&cfg, &StimulusSpec::default(), 2, 5.0, 7)
    });

    let sig = quantized_sine(4096, 449.0, 10);
    h.bench("fft_4096", || fft_real(&sig));
    let win = hann_window(4096);
    h.bench("power_spectrum_4096", || power_spectrum(&sig, &win));
    h.bench("analyze_sine_4096", || analyze_sine(&sig));

    print!("{}", h.report());
}
