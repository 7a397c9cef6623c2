//! Electrical configuration of the SAR ADC IP model.

/// Electrical parameters of the modeled 65 nm 10-bit SAR ADC IP.
///
/// Defaults follow the paper where it is explicit (10 bits, 156 MHz clock,
/// 12-pulse conversion frame) and typical 65 nm values elsewhere.
#[derive(Debug, Clone, PartialEq)]
pub struct AdcConfig {
    /// Digital supply (latch levels, invariance I6 reference).
    pub vdd: f64,
    /// Analog supply for the bandgap / reference buffer / preamp.
    pub vdda: f64,
    /// Nominal full-scale reference `VREF[32]` produced by the reference
    /// buffer.
    pub vref_fs: f64,
    /// Nominal common-mode voltage from the Vcm generator (`vref_fs / 2`).
    pub vcm: f64,
    /// Resolution in bits.
    pub bits: u32,
    /// Conversion clock.
    pub fclk: f64,
    /// Number of control pulses per conversion frame (P<0:11>).
    pub pulses_per_conversion: u32,
    /// Unit capacitor of the SC array.
    pub unit_cap: f64,
    /// Ladder unit resistor (32 in series inside the reference buffer).
    pub ladder_r: f64,
    /// Analog switch on-resistance.
    pub switch_ron: f64,
    /// Analog switch off-resistance.
    pub switch_roff: f64,
    /// Defect short resistance (paper §V: 10 Ω).
    pub defect_rshort: f64,
    /// Weak pull resistance modeling an open defect (paper §V: "a weak
    /// pull-up or pull-down is assigned to each open defect").
    pub defect_rweak: f64,
    /// Nominal pre-amplifier differential gain.
    pub preamp_gain: f64,
    /// Nominal pre-amplifier output common mode `Vcm2`.
    pub vcm2: f64,
    /// Parasitic capacitance at each SC-array top plate.
    pub top_parasitic: f64,
}

impl Default for AdcConfig {
    fn default() -> Self {
        Self {
            vdd: 1.2,
            vdda: 1.8,
            vref_fs: 1.2,
            vcm: 0.6,
            bits: 10,
            fclk: 156e6,
            pulses_per_conversion: 12,
            unit_cap: 50e-15,
            ladder_r: 400.0,
            switch_ron: 500.0,
            switch_roff: 1e12,
            defect_rshort: 10.0,
            defect_rweak: 10e6,
            preamp_gain: 40.0,
            vcm2: 0.9,
            top_parasitic: 5e-15,
        }
    }
}

impl AdcConfig {
    /// Number of output codes, `2^bits`.
    pub fn code_count(&self) -> u32 {
        1 << self.bits
    }

    /// One LSB of the differential input range in volts.
    ///
    /// The differential full scale spans `±vref_fs · 33/32` (32 units from
    /// the main DAC plus 1 unit of LSB interpolation; see the SC-array
    /// charge equations), so one LSB is that span over `2^bits`.
    pub fn lsb(&self) -> f64 {
        self.diff_full_scale() / self.code_count() as f64
    }

    /// Differential input span in volts (from −FS/2 to +FS/2).
    pub fn diff_full_scale(&self) -> f64 {
        2.0 * self.vref_fs * 33.0 / 32.0
    }

    /// Clock period.
    pub fn clock_period(&self) -> f64 {
        1.0 / self.fclk
    }

    /// Duration of one full conversion (12 pulses at `fclk`).
    pub fn conversion_time(&self) -> f64 {
        self.pulses_per_conversion as f64 / self.fclk
    }

    /// Validates the configuration, panicking with a clear message if a
    /// parameter is out of its physical range.
    ///
    /// # Panics
    ///
    /// Panics if any voltage/impedance/frequency is non-positive, if
    /// `vcm` is not below `vref_fs`, or if `bits` is outside 4..=16.
    pub fn validate(&self) {
        assert!(
            self.vdd > 0.0 && self.vdda > 0.0,
            "supplies must be positive"
        );
        assert!(self.vref_fs > 0.0, "vref must be positive");
        assert!(
            self.vcm > 0.0 && self.vcm < self.vref_fs,
            "vcm must lie inside the reference range"
        );
        assert!((4..=16).contains(&self.bits), "bits out of supported range");
        assert!(self.fclk > 0.0, "clock must be positive");
        assert!(
            self.unit_cap > 0.0 && self.top_parasitic >= 0.0,
            "capacitances invalid"
        );
        assert!(
            self.ladder_r > 0.0 && self.switch_ron > 0.0 && self.switch_roff > self.switch_ron,
            "resistances invalid"
        );
        assert!(
            self.defect_rshort > 0.0 && self.defect_rweak > 1e3,
            "defect resistances invalid"
        );
        assert!(self.preamp_gain > 1.0, "preamp gain must exceed 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_match_paper() {
        let c = AdcConfig::default();
        c.validate();
        assert_eq!(c.bits, 10);
        assert_eq!(c.code_count(), 1024);
        assert!((c.fclk - 156e6).abs() < 1.0);
        assert_eq!(c.pulses_per_conversion, 12);
        // Paper §IV-5: one conversion = 12 clock cycles ≈ 76.9 ns.
        assert!((c.conversion_time() - 12.0 / 156e6).abs() < 1e-15);
    }

    #[test]
    fn lsb_consistency() {
        let c = AdcConfig::default();
        assert!((c.lsb() * 1024.0 - c.diff_full_scale()).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn bad_vcm_rejected() {
        let c = AdcConfig {
            vcm: 2.0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic]
    fn bad_bits_rejected() {
        let c = AdcConfig {
            bits: 2,
            ..Default::default()
        };
        c.validate();
    }
}
