//! Simulated sensors: slip-blind wheel odometry and a 2-D LiDAR.

use crate::vehicle::{VehicleParams, VehicleState};
use raceloc_core::sensor_data::{ImuSample, LaserScan, Odometry};
use raceloc_core::{Pose2, Rng64, Twist2};
use raceloc_range::RangeMethod;

/// Noise configuration of the wheel odometer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WheelOdometerConfig {
    /// Multiplicative speed noise (σ as a fraction of speed).
    pub speed_noise_rel: f64,
    /// Additive speed noise σ \[m/s\].
    pub speed_noise_abs: f64,
    /// Steering angle measurement noise σ \[rad\].
    pub steer_noise: f64,
    /// Fuse the IMU gyro for the yaw rate instead of the Ackermann relation
    /// `ω = v·tanδ/L` (the F1TENTH convention: VESC speed + IMU yaw). The
    /// Ackermann yaw systematically over-rotates whenever the tires run at
    /// slip angles, so gyro fusion is the realistic default.
    pub use_imu_yaw: bool,
    /// IMU yaw-rate noise σ \[rad/s\] (used when `use_imu_yaw`).
    pub imu_yaw_noise: f64,
    /// IMU yaw-rate constant bias magnitude bound \[rad/s\].
    pub imu_yaw_bias: f64,
}

impl Default for WheelOdometerConfig {
    fn default() -> Self {
        Self {
            speed_noise_rel: 0.01,
            speed_noise_abs: 0.005,
            steer_noise: 0.004,
            use_imu_yaw: true,
            imu_yaw_noise: 0.012,
            imu_yaw_bias: 0.004,
        }
    }
}

/// Integrates encoder (+ gyro) readings into odometry, as the F1TENTH stack
/// does: speed comes from the *wheel*, yaw rate from the IMU gyro (default)
/// or from the Ackermann relation `ω = v·tan(δ)/L` when configured.
///
/// The wheel speed cannot see tire slip, so under wheelspin the integrated
/// pose over-counts distance, and side-slip (lateral `vy`) is invisible to
/// both inputs — this sensor is where "low-quality odometry" comes from.
///
/// # Examples
///
/// ```
/// use raceloc_sim::{WheelOdometer, WheelOdometerConfig, VehicleParams, VehicleState};
/// use raceloc_core::Rng64;
///
/// let mut odo = WheelOdometer::new(VehicleParams::f1tenth(), WheelOdometerConfig::default(), 7);
/// let mut state = VehicleState::default();
/// state.wheel_speed = 2.0;
/// state.vx = 2.0;
/// let sample = odo.sample(&state, 0.02, 0.02);
/// assert!(sample.pose.x > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct WheelOdometer {
    params: VehicleParams,
    config: WheelOdometerConfig,
    rng: Rng64,
    pose: Pose2,
    imu_bias: f64,
}

impl WheelOdometer {
    /// Creates an odometer at the odometry-frame origin.
    pub fn new(params: VehicleParams, config: WheelOdometerConfig, seed: u64) -> Self {
        let mut rng = Rng64::new(seed);
        let imu_bias = rng.uniform_range(-config.imu_yaw_bias, config.imu_yaw_bias.max(0.0));
        Self {
            params,
            config,
            rng,
            pose: Pose2::IDENTITY,
            imu_bias,
        }
    }

    /// Resets the integrated odometry pose to the origin.
    pub fn reset(&mut self) {
        self.pose = Pose2::IDENTITY;
    }

    /// Reads the encoders (and gyro, per the configuration), integrates for
    /// `dt`, and returns the sample.
    pub fn sample(&mut self, state: &VehicleState, dt: f64, stamp: f64) -> Odometry {
        let speed_sigma =
            self.config.speed_noise_abs + self.config.speed_noise_rel * state.wheel_speed.abs();
        let v = self.rng.gaussian_with(state.wheel_speed, speed_sigma);
        let omega = if self.config.use_imu_yaw {
            // Gyro yaw: sees the true rotation (plus bias/noise) even when
            // the tires slip.
            self.rng
                .gaussian_with(state.yaw_rate + self.imu_bias, self.config.imu_yaw_noise)
        } else {
            // Ackermann yaw from the steering servo: blind to slip angles.
            let steer = self.rng.gaussian_with(state.steer, self.config.steer_noise);
            v * steer.tan() / self.params.wheelbase()
        };
        let twist = Twist2::new(v, 0.0, omega);
        self.pose = self.pose * twist.integrate(dt);
        Odometry::new(self.pose, twist, stamp)
    }
}

/// IMU noise configuration and sampling.
#[derive(Debug, Clone)]
pub struct Imu {
    yaw_rate_noise: f64,
    yaw_rate_bias: f64,
    accel_noise: f64,
    rng: Rng64,
}

impl Imu {
    /// Creates an IMU with the given yaw-rate noise σ \[rad/s\] and a random
    /// constant bias drawn from ±`bias_range`.
    pub fn new(yaw_rate_noise: f64, bias_range: f64, seed: u64) -> Self {
        let mut rng = Rng64::new(seed);
        let yaw_rate_bias = rng.uniform_range(-bias_range, bias_range);
        Self {
            yaw_rate_noise,
            yaw_rate_bias,
            accel_noise: 0.05,
            rng,
        }
    }

    /// Samples the IMU for the given true state.
    pub fn sample(&mut self, state: &VehicleState, stamp: f64) -> ImuSample {
        ImuSample {
            yaw_rate: self
                .rng
                .gaussian_with(state.yaw_rate + self.yaw_rate_bias, self.yaw_rate_noise),
            accel_x: self.rng.gaussian_with(0.0, self.accel_noise),
            accel_y: self
                .rng
                .gaussian_with(state.vx * state.yaw_rate, self.accel_noise),
            stamp,
        }
    }
}

/// Geometry and noise of the simulated LiDAR (defaults follow the Hokuyo
/// UST-10LX used on F1TENTH cars: 270° field of view, 10 m range, 40 Hz).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LidarSpec {
    /// Number of beams per sweep.
    pub beams: usize,
    /// Total field of view \[rad\], centred on the sensor's +x axis.
    pub fov: f64,
    /// Maximum range \[m\].
    pub max_range: f64,
    /// Additive Gaussian range noise σ \[m\].
    pub range_noise: f64,
    /// Probability that a beam returns nothing. Dropped beams are tagged
    /// `f64::INFINITY` — an explicitly *invalid* return — so sensor models
    /// skip them instead of scoring a phantom obstacle at `max_range`.
    pub dropout: f64,
    /// Pose of the sensor in the vehicle body frame.
    pub mount: Pose2,
}

impl Default for LidarSpec {
    fn default() -> Self {
        Self {
            beams: 271,
            fov: 270.0f64.to_radians(),
            max_range: 10.0,
            range_noise: 0.01,
            dropout: 0.002,
            mount: Pose2::new(0.1, 0.0, 0.0),
        }
    }
}

/// The simulated LiDAR: casts one ray per beam against a [`RangeMethod`]
/// built over the ground-truth map.
#[derive(Debug, Clone)]
pub struct Lidar {
    spec: LidarSpec,
    rng: Rng64,
    /// Reusable query buffer for the sweep (DESIGN.md §11).
    queries: Vec<(f64, f64, f64)>,
    /// Reusable cast-result buffer for the sweep.
    cast: Vec<f64>,
}

impl Lidar {
    /// Creates a LiDAR with the given spec and noise seed.
    ///
    /// # Panics
    ///
    /// Panics when the spec has fewer than 2 beams or a non-positive FOV.
    pub fn new(spec: LidarSpec, seed: u64) -> Self {
        assert!(spec.beams >= 2, "lidar needs at least 2 beams");
        assert!(spec.fov > 0.0, "lidar fov must be positive");
        Self {
            spec,
            rng: Rng64::new(seed),
            queries: Vec::new(),
            cast: Vec::new(),
        }
    }

    /// The sensor spec.
    pub fn spec(&self) -> &LidarSpec {
        &self.spec
    }

    /// Produces one sweep from the vehicle's body pose.
    pub fn scan<M: RangeMethod + ?Sized>(
        &mut self,
        body_pose: Pose2,
        caster: &M,
        stamp: f64,
    ) -> LaserScan {
        self.scan_with_threads(body_pose, caster, 1, stamp)
    }

    /// Produces one sweep, batch-casting the beams on up to `threads`
    /// worker threads via [`RangeMethod::par_ranges_into`].
    ///
    /// Every beam is cast, dropped ones included, before the noise draws
    /// replay the per-beam order (dropout first, range noise only for
    /// in-envelope returns). Ray casting consumes no randomness and the
    /// batch driver's results do not depend on `threads`, so the scan is
    /// **bit-identical** for every `threads` value — the rule-R3 contract
    /// of DESIGN.md §11.
    pub fn scan_with_threads<M: RangeMethod + ?Sized>(
        &mut self,
        body_pose: Pose2,
        caster: &M,
        threads: usize,
        stamp: f64,
    ) -> LaserScan {
        let sensor_pose = body_pose * self.spec.mount;
        let angle_min = -0.5 * self.spec.fov;
        let inc = self.spec.fov / (self.spec.beams - 1) as f64;
        self.queries.clear();
        self.queries.extend((0..self.spec.beams).map(|i| {
            (
                sensor_pose.x,
                sensor_pose.y,
                sensor_pose.theta + angle_min + i as f64 * inc,
            )
        }));
        self.cast.clear();
        self.cast.resize(self.spec.beams, 0.0);
        caster.par_ranges_into(&self.queries, &mut self.cast, threads);
        let mut ranges = Vec::with_capacity(self.spec.beams);
        for i in 0..self.spec.beams {
            let r = if self.rng.bernoulli(self.spec.dropout) {
                f64::INFINITY
            } else {
                self.in_range_return(self.cast[i])
            };
            ranges.push(r);
        }
        let mut scan = LaserScan::new(angle_min, inc, ranges, self.spec.max_range);
        scan.stamp = stamp;
        scan
    }

    /// Applies the in-envelope part of the beam noise model: saturating
    /// returns report `max_range` with no noise draw; everything else gets
    /// one Gaussian range-noise draw, clamped to the envelope.
    fn in_range_return(&mut self, true_r: f64) -> f64 {
        let true_r = true_r.min(self.spec.max_range);
        if true_r >= self.spec.max_range {
            self.spec.max_range
        } else {
            self.rng
                .gaussian_with(true_r, self.spec.range_noise)
                .clamp(0.0, self.spec.max_range)
        }
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use raceloc_core::Point2;
    use raceloc_map::{CellState, OccupancyGrid};
    use raceloc_range::BresenhamCasting;

    fn room_caster() -> BresenhamCasting {
        let n = 100;
        let mut g = OccupancyGrid::new(n, n, 0.1, Point2::ORIGIN);
        g.fill(CellState::Free);
        for i in 0..n as i64 {
            g.set((i, 0).into(), CellState::Occupied);
            g.set((i, n as i64 - 1).into(), CellState::Occupied);
            g.set((0, i).into(), CellState::Occupied);
            g.set((n as i64 - 1, i).into(), CellState::Occupied);
        }
        BresenhamCasting::new(&g, 10.0)
    }

    #[test]
    fn odometer_tracks_straight_motion() {
        let mut odo = WheelOdometer::new(
            VehicleParams::f1tenth(),
            WheelOdometerConfig {
                speed_noise_rel: 0.0,
                speed_noise_abs: 0.0,
                steer_noise: 0.0,
                use_imu_yaw: false,
                imu_yaw_noise: 0.0,
                imu_yaw_bias: 0.0,
            },
            1,
        );
        let mut state = VehicleState::default();
        state.wheel_speed = 2.0;
        state.vx = 2.0;
        for i in 0..50 {
            odo.sample(&state, 0.02, i as f64 * 0.02);
        }
        let o = odo.sample(&state, 0.0, 1.0);
        assert!((o.pose.x - 2.0).abs() < 1e-9);
        assert!(o.pose.y.abs() < 1e-9);
    }

    #[test]
    fn odometer_is_blind_to_lateral_slip() {
        let mut odo = WheelOdometer::new(
            VehicleParams::f1tenth(),
            WheelOdometerConfig {
                speed_noise_rel: 0.0,
                speed_noise_abs: 0.0,
                steer_noise: 0.0,
                use_imu_yaw: false,
                imu_yaw_noise: 0.0,
                imu_yaw_bias: 0.0,
            },
            1,
        );
        // The car is drifting sideways: vy = 1 m/s, wheels straight.
        let mut state = VehicleState::default();
        state.wheel_speed = 2.0;
        state.vx = 2.0;
        state.vy = 1.0;
        for i in 0..50 {
            odo.sample(&state, 0.02, i as f64 * 0.02);
        }
        // Odometry saw only the longitudinal motion.
        let o = odo.sample(&state, 0.0, 1.0);
        assert!(o.pose.y.abs() < 1e-9, "odometry must not see side-slip");
    }

    #[test]
    fn odometer_overcounts_with_wheelspin() {
        let mut odo = WheelOdometer::new(
            VehicleParams::f1tenth(),
            WheelOdometerConfig {
                speed_noise_rel: 0.0,
                speed_noise_abs: 0.0,
                steer_noise: 0.0,
                use_imu_yaw: false,
                imu_yaw_noise: 0.0,
                imu_yaw_bias: 0.0,
            },
            1,
        );
        let mut state = VehicleState::default();
        state.wheel_speed = 3.0; // wheels spinning
        state.vx = 2.0; // chassis slower
        let mut o = Odometry::default();
        for i in 0..50 {
            o = odo.sample(&state, 0.02, i as f64 * 0.02);
        }
        assert!(
            o.pose.x > 2.5,
            "integrated {} should exceed true 2.0",
            o.pose.x
        );
    }

    #[test]
    fn odometer_yaw_follows_ackermann() {
        let params = VehicleParams::f1tenth();
        let mut odo = WheelOdometer::new(
            params,
            WheelOdometerConfig {
                speed_noise_rel: 0.0,
                speed_noise_abs: 0.0,
                steer_noise: 0.0,
                use_imu_yaw: false,
                imu_yaw_noise: 0.0,
                imu_yaw_bias: 0.0,
            },
            1,
        );
        let mut state = VehicleState::default();
        state.wheel_speed = 2.0;
        state.steer = 0.2;
        let o = odo.sample(&state, 0.02, 0.0);
        let expect = 2.0 * 0.2f64.tan() / params.wheelbase();
        assert!((o.twist.omega - expect).abs() < 1e-9);
    }

    #[test]
    fn odometer_noise_is_deterministic_in_seed() {
        let mk = || {
            let mut odo =
                WheelOdometer::new(VehicleParams::f1tenth(), WheelOdometerConfig::default(), 99);
            let mut state = VehicleState::default();
            state.wheel_speed = 3.0;
            (0..20)
                .map(|i| odo.sample(&state, 0.02, i as f64 * 0.02).pose.x)
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn lidar_scan_geometry() {
        let caster = room_caster();
        let mut lidar = Lidar::new(
            LidarSpec {
                beams: 5,
                fov: std::f64::consts::PI,
                max_range: 10.0,
                range_noise: 0.0,
                dropout: 0.0,
                mount: Pose2::IDENTITY,
            },
            3,
        );
        // Sensor at room center facing +x: middle beam hits the east wall.
        let scan = lidar.scan(Pose2::new(5.0, 5.0, 0.0), &caster, 0.0);
        assert_eq!(scan.len(), 5);
        assert!((scan.ranges[2] - 4.85).abs() < 0.15, "{}", scan.ranges[2]);
        // Extreme beams point ±90°: distances to the side walls.
        assert!((scan.ranges[0] - 4.95).abs() < 0.15);
        assert!((scan.ranges[4] - 4.85).abs() < 0.15);
    }

    #[test]
    fn lidar_mount_offset_is_applied() {
        let caster = room_caster();
        let spec = LidarSpec {
            beams: 3,
            fov: 0.2,
            max_range: 10.0,
            range_noise: 0.0,
            dropout: 0.0,
            mount: Pose2::new(1.0, 0.0, 0.0),
        };
        let mut lidar = Lidar::new(spec, 3);
        let scan = lidar.scan(Pose2::new(5.0, 5.0, 0.0), &caster, 0.0);
        // Sensor sits 1 m ahead of the body, so the wall is 1 m closer.
        assert!((scan.ranges[1] - 3.85).abs() < 0.15, "{}", scan.ranges[1]);
    }

    #[test]
    fn lidar_dropout_tags_beams_invalid() {
        let caster = room_caster();
        let mut lidar = Lidar::new(
            LidarSpec {
                beams: 200,
                fov: 2.0,
                max_range: 10.0,
                range_noise: 0.0,
                dropout: 1.0,
                mount: Pose2::IDENTITY,
            },
            3,
        );
        let scan = lidar.scan(Pose2::new(5.0, 5.0, 0.0), &caster, 0.0);
        // Dropped beams are invalid, not a phantom wall at max_range.
        assert!(scan.ranges.iter().all(|&r| r.is_infinite()));
        assert_eq!(scan.valid_returns().count(), 0);
    }

    #[test]
    fn lidar_noise_bounded_and_deterministic() {
        let caster = room_caster();
        let spec = LidarSpec {
            range_noise: 0.05,
            dropout: 0.0,
            ..LidarSpec::default()
        };
        let mut a = Lidar::new(spec, 11);
        let mut b = Lidar::new(spec, 11);
        let pa = Pose2::new(5.0, 5.0, 0.7);
        let sa = a.scan(pa, &caster, 0.0);
        let sb = b.scan(pa, &caster, 0.0);
        assert_eq!(sa, sb);
        for &r in &sa.ranges {
            assert!((0.0..=10.0).contains(&r));
        }
    }

    #[test]
    fn batched_sweep_matches_serial_bitwise() {
        let caster = room_caster();
        // High dropout so the replayed draw order (dropout before the
        // conditional noise draw) is actually exercised.
        let spec = LidarSpec {
            range_noise: 0.05,
            dropout: 0.2,
            ..LidarSpec::default()
        };
        let mut serial = Lidar::new(spec, 7);
        for threads in [2usize, 4, 8] {
            let mut batched = Lidar::new(spec, 7);
            let mut serial = Lidar::new(spec, 7);
            for step in 0..5 {
                let pose = Pose2::new(5.0 + 0.1 * step as f64, 5.0, 0.3 * step as f64);
                let sa = serial.scan(pose, &caster, step as f64);
                let sb = batched.scan_with_threads(pose, &caster, threads, step as f64);
                assert_eq!(sa, sb, "threads={threads} step={step}");
            }
        }
        // The serial entry point is itself the threads=1 batched path.
        let mut one = Lidar::new(spec, 7);
        let pose = Pose2::new(5.0, 5.0, 0.7);
        assert_eq!(
            serial.scan(pose, &caster, 0.0),
            one.scan_with_threads(pose, &caster, 1, 0.0)
        );
    }

    #[test]
    #[should_panic(expected = "at least 2 beams")]
    fn one_beam_lidar_panics() {
        Lidar::new(
            LidarSpec {
                beams: 1,
                ..LidarSpec::default()
            },
            0,
        );
    }

    #[test]
    fn imu_bias_is_constant_and_seeded() {
        let mut a = Imu::new(0.0, 0.05, 5);
        let mut b = Imu::new(0.0, 0.05, 5);
        let state = VehicleState::default();
        let s1 = a.sample(&state, 0.0);
        let s2 = a.sample(&state, 0.1);
        assert_eq!(s1.yaw_rate, s2.yaw_rate); // zero noise → bias only
        assert_eq!(s1.yaw_rate, b.sample(&state, 0.0).yaw_rate);
        assert!(s1.yaw_rate.abs() <= 0.05);
    }
}
