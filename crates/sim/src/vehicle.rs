//! Dynamic single-track ("bicycle") vehicle model with saturating tires.
//!
//! The model is deliberately rich enough to *produce* the effect the paper
//! studies instead of faking it:
//!
//! - **Lateral**: front/rear slip angles generate lateral tire forces with a
//!   smooth saturation at `μ·Fz`. Past the limit the car slides — body-frame
//!   lateral velocity `vy` grows — and wheel odometry (which assumes no
//!   side-slip) becomes wrong.
//! - **Longitudinal**: the drivetrain spins the *wheels* toward the
//!   commanded speed; the chassis is dragged along through a slip-dependent
//!   traction force capped by the friction circle. Under low grip and hard
//!   acceleration the wheels overrun the ground speed (wheelspin) and
//!   encoder-based odometry over-counts distance.
//!
//! Parameters default to the common F1TENTH identification (≈3.5 kg,
//! 0.325 m wheelbase).

use raceloc_core::{angle, Pose2, Twist2};

/// Physical parameters of the single-track model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehicleParams {
    /// Vehicle mass \[kg\].
    pub mass: f64,
    /// Yaw moment of inertia \[kg·m²\].
    pub inertia_z: f64,
    /// Distance from center of gravity to front axle \[m\].
    pub lf: f64,
    /// Distance from center of gravity to rear axle \[m\].
    pub lr: f64,
    /// Normalized cornering stiffness, front \[1/rad\] (force = `cs·Fz·α`).
    pub cs_front: f64,
    /// Normalized cornering stiffness, rear \[1/rad\].
    pub cs_rear: f64,
    /// Tire–ground friction coefficient. ≈1.0 is the paper's grippy
    /// surface (26 N lateral pull); ≈0.73 the taped "slippery" tires (19 N).
    pub mu: f64,
    /// Longitudinal slip stiffness \[N per m/s of slip speed\].
    pub k_long: f64,
    /// Maximum steering angle \[rad\].
    pub max_steer: f64,
    /// Steering rate limit \[rad/s\].
    pub max_steer_rate: f64,
    /// Drivetrain wheel acceleration limit \[m/s²\] (how fast the motor can
    /// spin the wheels up — intentionally above the traction limit so that
    /// wheelspin is possible).
    pub max_wheel_accel: f64,
    /// Drivetrain slip ceiling \[m/s\]: the ESC's current limiting caps how
    /// far the wheel surface speed can run away from the chassis speed.
    /// Wheelspin up to this bound corrupts odometry; beyond it the motor
    /// cannot sustain the slip.
    pub max_drive_slip: f64,
    /// Top speed \[m/s\].
    pub max_speed: f64,
}

impl VehicleParams {
    /// F1TENTH-scale defaults on the paper's grippy surface.
    pub fn f1tenth() -> Self {
        Self {
            mass: 3.47,
            inertia_z: 0.048,
            lf: 0.158,
            lr: 0.172,
            cs_front: 6.2,
            cs_rear: 8.0,
            mu: 1.0,
            k_long: 90.0,
            max_steer: 0.41,
            max_steer_rate: 3.2,
            max_wheel_accel: 8.0,
            max_drive_slip: 0.7,
            max_speed: 8.0,
        }
    }

    /// The same car with "taped tires": friction scaled by the paper's
    /// measured 19 N / 26 N pull-force ratio.
    pub fn f1tenth_slippery() -> Self {
        Self {
            mu: 19.0 / 26.0,
            ..Self::f1tenth()
        }
    }

    /// Wheelbase `lf + lr` \[m\].
    #[inline]
    pub fn wheelbase(&self) -> f64 {
        self.lf + self.lr
    }
}

impl Default for VehicleParams {
    fn default() -> Self {
        Self::f1tenth()
    }
}

/// The full dynamic state of the vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VehicleState {
    /// Pose of the center of gravity in the world frame.
    pub pose: Pose2,
    /// Longitudinal body velocity \[m/s\].
    pub vx: f64,
    /// Lateral body velocity \[m/s\] (non-zero means the car is sliding).
    pub vy: f64,
    /// Yaw rate \[rad/s\].
    pub yaw_rate: f64,
    /// Actual steering angle after rate limiting \[rad\].
    pub steer: f64,
    /// Linear speed of the driven wheels \[m/s\] — what an encoder measures.
    pub wheel_speed: f64,
}

impl VehicleState {
    /// A state at rest at the given pose.
    pub fn at_pose(pose: Pose2) -> Self {
        Self {
            pose,
            ..Self::default()
        }
    }

    /// Ground speed of the center of gravity \[m/s\].
    #[inline]
    pub fn speed(&self) -> f64 {
        self.vx.hypot(self.vy)
    }

    /// The body-frame velocity as a twist.
    #[inline]
    pub fn twist(&self) -> Twist2 {
        Twist2::new(self.vx, self.vy, self.yaw_rate)
    }

    /// Side-slip angle β = atan2(vy, vx) \[rad\]; a proxy for "the car is
    /// drifting" used by tests and diagnostics.
    #[inline]
    pub fn side_slip(&self) -> f64 {
        if self.speed() < 1e-6 {
            0.0
        } else {
            self.vy.atan2(self.vx)
        }
    }

    /// Longitudinal wheel slip speed `wheel_speed − vx` \[m/s\]; positive
    /// under wheelspin, negative when the wheels lock under braking.
    #[inline]
    pub fn wheel_slip(&self) -> f64 {
        self.wheel_speed - self.vx
    }
}

/// A drive command: target speed plus steering angle (the F1TENTH
/// `AckermannDrive` convention).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DriveCommand {
    /// Target wheel speed \[m/s\].
    pub target_speed: f64,
    /// Desired steering angle \[rad\].
    pub steer: f64,
}

impl DriveCommand {
    /// Creates a command.
    pub fn new(target_speed: f64, steer: f64) -> Self {
        Self {
            target_speed,
            steer,
        }
    }
}

const GRAVITY: f64 = 9.81;
/// Below this speed the dynamic model is ill-conditioned (slip angles blow
/// up); a kinematic bicycle takes over and blends back in above it.
const KINEMATIC_BLEND_SPEED: f64 = 0.8;

/// The vehicle: parameters plus the integration routine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vehicle {
    params: VehicleParams,
}

impl Vehicle {
    /// Creates a vehicle with the given parameters.
    pub fn new(params: VehicleParams) -> Self {
        Self { params }
    }

    /// The vehicle parameters.
    pub fn params(&self) -> &VehicleParams {
        &self.params
    }

    /// Mutable access to the parameters (e.g. to change `mu` mid-test).
    pub fn params_mut(&mut self) -> &mut VehicleParams {
        &mut self.params
    }

    /// Advances the state by `dt` seconds under the given command,
    /// integrating with semi-implicit Euler at the caller's step (intended
    /// ≤ 2 ms).
    pub fn step(&self, state: &VehicleState, cmd: &DriveCommand, dt: f64) -> VehicleState {
        let p = &self.params;
        let mut s = *state;

        // Steering actuator: rate limited toward the commanded angle.
        let steer_target = cmd.steer.clamp(-p.max_steer, p.max_steer);
        let steer_err = steer_target - s.steer;
        let max_dsteer = p.max_steer_rate * dt;
        s.steer += steer_err.clamp(-max_dsteer, max_dsteer);

        // Drivetrain: wheel speed chases the target, limited by motor accel.
        let target = cmd.target_speed.clamp(0.0, p.max_speed);
        let wheel_err = target - s.wheel_speed;
        let max_dwheel = p.max_wheel_accel * dt;
        s.wheel_speed += wheel_err.clamp(-1.6 * max_dwheel, max_dwheel);
        // ESC slip ceiling: the motor cannot sustain a wheel surface speed
        // running away arbitrarily from the chassis.
        s.wheel_speed = s.wheel_speed.clamp(
            (s.vx - 1.5 * p.max_drive_slip).max(0.0),
            s.vx + p.max_drive_slip,
        );

        // Axle loads (static distribution).
        let fz_front = p.mass * GRAVITY * p.lr / p.wheelbase();
        let fz_rear = p.mass * GRAVITY * p.lf / p.wheelbase();

        // Longitudinal traction at the rear axle from wheel slip.
        let slip = s.wheel_speed - s.vx;
        let fx_raw = p.k_long * slip;

        // Lateral forces from slip angles, smoothly saturating at μ·Fz.
        let vx_safe = s.vx.max(KINEMATIC_BLEND_SPEED);
        let alpha_f = s.steer - (s.vy + p.lf * s.yaw_rate).atan2(vx_safe);
        let alpha_r = -(s.vy - p.lr * s.yaw_rate).atan2(vx_safe);
        let fy_cap_f = p.mu * fz_front;
        let fy_front = fy_cap_f * (p.cs_front * fz_front * alpha_f / fy_cap_f.max(1e-9)).tanh();
        // Friction ellipse at the rear: longitudinal force consumes lateral
        // capacity, but real tires retain substantial cornering grip at
        // partial longitudinal slip — weight the coupling accordingly.
        let fx_cap = p.mu * fz_rear;
        let fx = fx_raw.clamp(-fx_cap, fx_cap);
        let coupled = 0.6 * fx;
        let fy_cap_r = (fx_cap * fx_cap - coupled * coupled)
            .max(0.0)
            .sqrt()
            .max(0.25 * fx_cap);
        let fy_rear = fy_cap_r * (p.cs_rear * fz_rear * alpha_r / fy_cap_r).tanh();

        // Rigid-body dynamics in the body frame.
        let ax = (fx - fy_front * s.steer.sin()) / p.mass + s.vy * s.yaw_rate;
        let ay = (fy_rear + fy_front * s.steer.cos()) / p.mass - s.vx * s.yaw_rate;
        let yaw_acc = (p.lf * fy_front * s.steer.cos() - p.lr * fy_rear) / p.inertia_z;

        let dyn_weight = ((s.vx - KINEMATIC_BLEND_SPEED) / KINEMATIC_BLEND_SPEED).clamp(0.0, 1.0);

        // Dynamic update.
        let mut vx_dyn = s.vx + ax * dt;
        let mut vy_dyn = s.vy + ay * dt;
        let mut wz_dyn = s.yaw_rate + yaw_acc * dt;

        // Kinematic bicycle (no slip) for the low-speed regime.
        let vx_kin = s.vx + (fx / p.mass) * dt;
        let wz_kin = vx_kin * s.steer.tan() / p.wheelbase();
        let vy_kin = wz_kin * p.lr;

        vx_dyn = dyn_weight * vx_dyn + (1.0 - dyn_weight) * vx_kin;
        vy_dyn = dyn_weight * vy_dyn + (1.0 - dyn_weight) * vy_kin;
        wz_dyn = dyn_weight * wz_dyn + (1.0 - dyn_weight) * wz_kin;

        // No reversing in a race: clamp chassis speed at zero.
        if vx_dyn < 0.0 {
            vx_dyn = 0.0;
        }

        s.vx = vx_dyn;
        s.vy = vy_dyn;
        s.yaw_rate = wz_dyn;

        // Integrate the pose with the (new) body velocity — semi-implicit.
        let delta = Twist2::new(s.vx, s.vy, s.yaw_rate).integrate(dt);
        s.pose = s.pose * delta;
        s.pose = Pose2::new(s.pose.x, s.pose.y, angle::normalize(s.pose.theta));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(
        vehicle: &Vehicle,
        mut state: VehicleState,
        cmd: DriveCommand,
        seconds: f64,
    ) -> VehicleState {
        let dt = 0.002;
        let steps = (seconds / dt) as usize;
        for _ in 0..steps {
            state = vehicle.step(&state, &cmd, dt);
        }
        state
    }

    #[test]
    fn accelerates_to_target_speed_on_grip() {
        let v = Vehicle::new(VehicleParams::f1tenth());
        let s = drive(
            &v,
            VehicleState::default(),
            DriveCommand::new(3.0, 0.0),
            4.0,
        );
        assert!((s.vx - 3.0).abs() < 0.1, "vx={}", s.vx);
        assert!(s.vy.abs() < 0.05);
    }

    #[test]
    fn straight_line_goes_straight() {
        let v = Vehicle::new(VehicleParams::f1tenth());
        let s = drive(
            &v,
            VehicleState::default(),
            DriveCommand::new(4.0, 0.0),
            3.0,
        );
        assert!(s.pose.y.abs() < 0.01);
        assert!(s.pose.theta.abs() < 0.01);
        assert!(s.pose.x > 5.0);
    }

    #[test]
    fn steady_state_cornering_radius() {
        let v = Vehicle::new(VehicleParams::f1tenth());
        let mut s = VehicleState::default();
        let cmd = DriveCommand::new(2.0, 0.2);
        s = drive(&v, s, cmd, 6.0);
        // Kinematic radius R = L / tan(δ) ≈ 1.63 m; at 2 m/s the dynamic
        // radius is close. ω ≈ v / R.
        let r = s.vx / s.yaw_rate.abs().max(1e-9);
        let r_kin = v.params().wheelbase() / 0.2f64.tan();
        assert!((r - r_kin).abs() / r_kin < 0.25, "r={r} r_kin={r_kin}");
    }

    #[test]
    fn turning_left_increases_heading() {
        let v = Vehicle::new(VehicleParams::f1tenth());
        let s = drive(
            &v,
            VehicleState::default(),
            DriveCommand::new(2.0, 0.3),
            1.5,
        );
        assert!(s.yaw_rate > 0.0);
        assert!(s.pose.theta > 0.2);
    }

    #[test]
    fn low_grip_produces_wheelspin_on_launch() {
        let grippy = Vehicle::new(VehicleParams::f1tenth());
        let slippery = Vehicle::new(VehicleParams::f1tenth_slippery());
        let cmd = DriveCommand::new(6.0, 0.0);
        let dt = 0.002;
        let mut sg = VehicleState::default();
        let mut ss = VehicleState::default();
        // Integrated slip distance = how much the encoders over-count.
        let mut slip_dist_g = 0.0f64;
        let mut slip_dist_s = 0.0f64;
        for _ in 0..1000 {
            sg = grippy.step(&sg, &cmd, dt);
            ss = slippery.step(&ss, &cmd, dt);
            slip_dist_g += sg.wheel_slip().max(0.0) * dt;
            slip_dist_s += ss.wheel_slip().max(0.0) * dt;
        }
        // Slippery tires spin longer (both may touch the ESC slip ceiling,
        // but low grip keeps the wheels spinning for more of the launch).
        assert!(
            slip_dist_s > slip_dist_g * 1.2,
            "slippery {slip_dist_s} vs grippy {slip_dist_g}"
        );
        // And the chassis accelerates more slowly.
        assert!(ss.vx < sg.vx);
    }

    #[test]
    fn low_grip_slides_more_in_corners() {
        // A corner demanding ~8.5 m/s² lateral: between the slippery limit
        // (≈7.2) and the grippy limit (≈9.8), so only the slippery car
        // saturates and slides.
        let grippy = Vehicle::new(VehicleParams::f1tenth());
        let slippery = Vehicle::new(VehicleParams::f1tenth_slippery());
        let enter = |v: &Vehicle| {
            let mut s = drive(v, VehicleState::default(), DriveCommand::new(4.3, 0.0), 4.0);
            let cmd = DriveCommand::new(4.3, 0.15);
            let dt = 0.002;
            let mut max_vy = 0.0f64;
            for _ in 0..1500 {
                s = v.step(&s, &cmd, dt);
                max_vy = max_vy.max(s.vy.abs());
            }
            max_vy
        };
        let vy_g = enter(&grippy);
        let vy_s = enter(&slippery);
        assert!(vy_s > vy_g * 1.1, "slippery {vy_s} vs grippy {vy_g}");
    }

    #[test]
    fn lateral_acceleration_is_grip_limited() {
        let v = Vehicle::new(VehicleParams::f1tenth());
        // Full-lock fast corner: steady-state lateral accel ≤ μ·g (+ small
        // numerical margin).
        let mut s = drive(
            &v,
            VehicleState::default(),
            DriveCommand::new(6.0, 0.0),
            4.0,
        );
        let cmd = DriveCommand::new(6.0, 0.4);
        let dt = 0.002;
        // Let the transient settle, then average the centripetal
        // acceleration ω·|v| over one second of steady cornering.
        for _ in 0..3000 {
            s = v.step(&s, &cmd, dt);
        }
        let mut acc = 0.0;
        let n = 500;
        for _ in 0..n {
            s = v.step(&s, &cmd, dt);
            acc += (s.speed() * s.yaw_rate).abs();
        }
        let a_lat = acc / n as f64;
        assert!(
            a_lat <= v.params().mu * GRAVITY * 1.2,
            "a_lat={a_lat} exceeds grip limit"
        );
    }

    #[test]
    fn steering_is_rate_limited() {
        let v = Vehicle::new(VehicleParams::f1tenth());
        let s0 = VehicleState::default();
        let s1 = v.step(&s0, &DriveCommand::new(0.0, 0.4), 0.01);
        assert!(s1.steer <= v.params().max_steer_rate * 0.01 + 1e-12);
    }

    #[test]
    fn steering_is_angle_limited() {
        let v = Vehicle::new(VehicleParams::f1tenth());
        let s = drive(
            &v,
            VehicleState::default(),
            DriveCommand::new(1.0, 2.0),
            2.0,
        );
        assert!(s.steer <= v.params().max_steer + 1e-12);
    }

    #[test]
    fn braking_slows_the_car() {
        let v = Vehicle::new(VehicleParams::f1tenth());
        let s = drive(
            &v,
            VehicleState::default(),
            DriveCommand::new(5.0, 0.0),
            4.0,
        );
        let s2 = drive(&v, s, DriveCommand::new(0.0, 0.0), 3.0);
        assert!(s2.vx < 0.2, "vx={}", s2.vx);
        assert!(s2.vx >= 0.0);
    }

    #[test]
    fn no_reverse_from_rest() {
        let v = Vehicle::new(VehicleParams::f1tenth());
        let s = drive(
            &v,
            VehicleState::default(),
            DriveCommand::new(0.0, 0.0),
            1.0,
        );
        assert_eq!(s.vx, 0.0);
        assert!(s.pose.x.abs() < 1e-9);
    }

    #[test]
    fn heading_stays_normalized_during_long_run() {
        let v = Vehicle::new(VehicleParams::f1tenth());
        let mut s = VehicleState::default();
        let cmd = DriveCommand::new(3.0, 0.3);
        for _ in 0..20_000 {
            s = v.step(&s, &cmd, 0.002);
        }
        assert!(s.pose.theta.abs() <= std::f64::consts::PI + 1e-9);
        assert!(s.pose.is_finite());
    }

    #[test]
    fn wheel_odometry_overcounts_under_wheelspin() {
        // Integrated wheel distance exceeds true distance when grip is low.
        let v = Vehicle::new(VehicleParams::f1tenth_slippery());
        let mut s = VehicleState::default();
        let cmd = DriveCommand::new(7.0, 0.0);
        let dt = 0.002;
        let mut wheel_dist = 0.0;
        for _ in 0..1500 {
            s = v.step(&s, &cmd, dt);
            wheel_dist += s.wheel_speed * dt;
        }
        let true_dist = s.pose.x;
        assert!(
            wheel_dist > true_dist * 1.01,
            "wheel {wheel_dist} vs true {true_dist}"
        );
    }
}
