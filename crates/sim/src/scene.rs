//! The tabletop scene: objects, articulated fixtures and their kinematic
//! interaction with the gripper.

use corki_math::Vec3;
use corki_trajectory::{EePose, GripperState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The three manipulable blocks of the CALVIN scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockColor {
    /// The red block.
    Red,
    /// The blue block.
    Blue,
    /// The pink block.
    Pink,
}

impl BlockColor {
    /// All three blocks.
    pub const ALL: [BlockColor; 3] = [BlockColor::Red, BlockColor::Blue, BlockColor::Pink];

    /// Index in `[0, 3)` used for array storage.
    pub fn index(self) -> usize {
        match self {
            BlockColor::Red => 0,
            BlockColor::Blue => 1,
            BlockColor::Pink => 2,
        }
    }
}

/// Objects and fixtures a task can refer to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SceneObject {
    /// One of the coloured blocks.
    Block(BlockColor),
    /// The sliding door on the table.
    Slider,
    /// The drawer under the table surface.
    Drawer,
    /// The lever switch controlling the light bulb.
    Switch,
    /// The push button controlling the LED.
    Button,
}

/// One manipulable block.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// Centre position in the robot base frame (metres).
    pub position: Vec3,
    /// Yaw orientation (radians).
    pub yaw: f64,
    /// Whether the block is currently held by the gripper.
    pub grasped: bool,
}

/// Geometry constants of the scene, roughly matching the CALVIN table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SceneConfig {
    /// Height of the table surface (metres, base frame).
    pub table_height: f64,
    /// Half-extent of the reachable table area in x.
    pub table_half_x: f64,
    /// Half-extent of the reachable table area in y.
    pub table_half_y: f64,
    /// Centre of the table area in front of the robot.
    pub table_center: Vec3,
    /// Position of the drawer handle when closed.
    pub drawer_handle_closed: Vec3,
    /// Drawer travel (metres) from closed to fully open (along -y).
    pub drawer_travel: f64,
    /// Position of the slider handle at its leftmost position.
    pub slider_handle_left: Vec3,
    /// Slider travel along +y.
    pub slider_travel: f64,
    /// Position of the switch lever.
    pub switch_position: Vec3,
    /// Position of the LED button.
    pub button_position: Vec3,
    /// Distance below which the gripper can grasp / actuate an object.
    pub interaction_radius: f64,
    /// Edge length of a block.
    pub block_size: f64,
}

impl Default for SceneConfig {
    fn default() -> Self {
        SceneConfig {
            table_height: 0.0,
            table_half_x: 0.25,
            table_half_y: 0.35,
            table_center: Vec3::new(0.45, 0.0, 0.0),
            drawer_handle_closed: Vec3::new(0.35, 0.28, -0.05),
            drawer_travel: 0.16,
            slider_handle_left: Vec3::new(0.6, -0.12, 0.08),
            slider_travel: 0.24,
            switch_position: Vec3::new(0.62, 0.22, 0.12),
            button_position: Vec3::new(0.62, 0.3, 0.05),
            interaction_radius: 0.025,
            block_size: 0.04,
        }
    }
}

/// The full mutable state of the tabletop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scene {
    /// Geometry configuration.
    pub config: SceneConfig,
    blocks: [Block; 3],
    /// Drawer extension in `[0, 1]` (0 closed, 1 fully open).
    pub drawer_extension: f64,
    /// Slider position in `[0, 1]` (0 left, 1 right).
    pub slider_position: f64,
    /// Whether the lever switch is on (light bulb lit).
    pub switch_on: bool,
    /// Whether the LED is on (toggled by the button).
    pub led_on: bool,
    /// Which block is currently grasped, if any.
    pub grasped_block: Option<BlockColor>,
    /// Yaw offset between the grasped block and the gripper at grasp time, so
    /// that wrist rotations rotate the block (used by the rotate tasks).
    grasp_yaw_offset: f64,
}

impl Scene {
    /// Creates the canonical scene with blocks at fixed nominal positions.
    pub fn new(config: SceneConfig) -> Self {
        let z = config.table_height + config.block_size / 2.0;
        let blocks = [
            Block { position: Vec3::new(0.42, -0.08, z), yaw: 0.0, grasped: false },
            Block { position: Vec3::new(0.5, 0.06, z), yaw: 0.4, grasped: false },
            Block { position: Vec3::new(0.38, 0.14, z), yaw: -0.3, grasped: false },
        ];
        Scene {
            config,
            blocks,
            drawer_extension: 0.0,
            slider_position: 0.0,
            switch_on: false,
            led_on: false,
            grasped_block: None,
            grasp_yaw_offset: 0.0,
        }
    }

    /// Creates a randomised scene: block positions, drawer/slider/switch state
    /// are drawn from the given seed. `unseen` draws from a shifted
    /// distribution (different table region and initial articulation), which
    /// is how the benchmark realises its seen/unseen split.
    pub fn randomized(seed: u64, unseen: bool) -> Self {
        let config = SceneConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scene = Scene::new(config);
        let z = config.table_height + config.block_size / 2.0;
        let (x_range, y_range) = if unseen {
            // Unseen scenes put objects nearer the table edges.
            ((0.36..0.52), (-0.3..0.3))
        } else {
            ((0.38..0.5), (-0.2..0.2))
        };
        for i in 0..3 {
            // Rejection-sample so blocks do not overlap.
            loop {
                let candidate =
                    Vec3::new(rng.gen_range(x_range.clone()), rng.gen_range(y_range.clone()), z);
                let clear = scene.blocks[..i]
                    .iter()
                    .all(|b| (b.position - candidate).norm() > 2.5 * config.block_size);
                if clear {
                    scene.blocks[i].position = candidate;
                    break;
                }
            }
            scene.blocks[i].yaw = rng.gen_range(-1.0..1.0);
        }
        scene.drawer_extension = if rng.gen_bool(0.3) { rng.gen_range(0.5..1.0) } else { 0.0 };
        scene.slider_position = rng.gen_range(0.0..1.0);
        scene.switch_on = rng.gen_bool(0.5);
        scene.led_on = rng.gen_bool(0.5);
        if unseen {
            // Unseen episodes additionally perturb the fixture geometry a
            // little, emulating the different CALVIN environment layout.
            scene.config.switch_position.y += 0.04;
            scene.config.drawer_handle_closed.x -= 0.03;
        }
        scene
    }

    /// The state of a block.
    pub fn block(&self, color: BlockColor) -> &Block {
        &self.blocks[color.index()]
    }

    /// The current handle position of the drawer.
    pub fn drawer_handle(&self) -> Vec3 {
        let mut p = self.config.drawer_handle_closed;
        p.y += self.drawer_extension * self.config.drawer_travel;
        p
    }

    /// The current handle position of the slider.
    pub fn slider_handle(&self) -> Vec3 {
        let mut p = self.config.slider_handle_left;
        p.y += self.slider_position * self.config.slider_travel;
        p
    }

    /// The interaction point of a scene object in its current state.
    pub fn object_position(&self, object: SceneObject) -> Vec3 {
        match object {
            SceneObject::Block(c) => self.block(c).position,
            SceneObject::Drawer => self.drawer_handle(),
            SceneObject::Slider => self.slider_handle(),
            SceneObject::Switch => self.config.switch_position,
            SceneObject::Button => self.config.button_position,
        }
    }

    /// Advances the scene by one control step given the end-effector pose at
    /// the *end* of the step and the commanded gripper state.
    ///
    /// The interaction model is kinematic and deliberately forgiving, in the
    /// spirit of CALVIN's magnetic gripper: a block is grasped when the closed
    /// gripper is within [`SceneConfig::interaction_radius`] of it; a grasped
    /// block follows the gripper; articulated fixtures follow the gripper
    /// while it stays within the interaction radius of their handle.
    pub fn step(&mut self, end_effector: &EePose, previous_effector: &EePose) {
        let tip = end_effector.position;
        let closing = end_effector.gripper == GripperState::Closed;
        let was_closed = previous_effector.gripper == GripperState::Closed;

        // Grasp / release blocks.
        match self.grasped_block {
            Some(color) => {
                if !closing {
                    // Release: drop the block straight down onto whatever
                    // supports it (another block, the slider shelf, or the
                    // table surface).
                    let idx = color.index();
                    let rest_z = self.drop_height(color);
                    self.blocks[idx].grasped = false;
                    self.blocks[idx].position.z = rest_z;
                    self.grasped_block = None;
                } else {
                    let idx = color.index();
                    self.blocks[idx].position = tip;
                    self.blocks[idx].yaw = end_effector.euler.z + self.grasp_yaw_offset;
                }
            }
            None => {
                if closing && !was_closed {
                    // A fresh close: try to grasp the nearest block.
                    let nearest = BlockColor::ALL
                        .iter()
                        .copied()
                        .map(|c| (c, (self.block(c).position - tip).norm()))
                        .min_by(|a, b| a.1.total_cmp(&b.1));
                    if let Some((color, dist)) = nearest {
                        if dist <= self.config.interaction_radius {
                            self.grasped_block = Some(color);
                            self.blocks[color.index()].grasped = true;
                            self.grasp_yaw_offset =
                                self.blocks[color.index()].yaw - end_effector.euler.z;
                            self.blocks[color.index()].position = tip;
                        }
                    }
                }
            }
        }

        // Articulated fixtures: drawer (moves along y), slider (along y),
        // switch (toggled by proximity sweep), button (pressed from above).
        let drawer_handle = self.drawer_handle();
        if closing && (drawer_handle - tip).norm() <= self.config.interaction_radius {
            let delta_y = end_effector.position.y - previous_effector.position.y;
            let new_ext = self.drawer_extension + delta_y / self.config.drawer_travel;
            self.drawer_extension = new_ext.clamp(0.0, 1.0);
        }
        let slider_handle = self.slider_handle();
        if closing && (slider_handle - tip).norm() <= self.config.interaction_radius {
            let delta_y = end_effector.position.y - previous_effector.position.y;
            let new_pos = self.slider_position + delta_y / self.config.slider_travel;
            self.slider_position = new_pos.clamp(0.0, 1.0);
        }
        if (self.config.switch_position - tip).norm() <= self.config.interaction_radius {
            let delta_z = end_effector.position.z - previous_effector.position.z;
            if delta_z > 0.005 {
                self.switch_on = true;
            } else if delta_z < -0.005 {
                self.switch_on = false;
            }
        }
        if (self.config.button_position - tip).norm() <= self.config.interaction_radius * 0.8 {
            let delta_z = end_effector.position.z - previous_effector.position.z;
            if delta_z < -0.005 {
                self.led_on = !self.led_on;
            }
        }
    }

    /// The height a released block settles at: on top of another block if it
    /// hovers over one, on the slider shelf if it is in the shelf region, or
    /// on the table otherwise.
    fn drop_height(&self, color: BlockColor) -> f64 {
        let p = self.blocks[color.index()].position;
        let half = self.config.block_size / 2.0;
        // Support by another block.
        for other in BlockColor::ALL {
            if other == color {
                continue;
            }
            let o = self.block(other).position;
            let horizontal = ((p.x - o.x).powi(2) + (p.y - o.y).powi(2)).sqrt();
            if horizontal < self.config.block_size * 0.75 && p.z > o.z {
                return o.z + self.config.block_size;
            }
        }
        // Support by the slider shelf.
        let shelf = self.slider_handle() + Vec3::new(-0.05, 0.0, 0.0);
        let horizontal = ((p.x - shelf.x).powi(2) + (p.y - shelf.y).powi(2)).sqrt();
        if horizontal < 0.07 && p.z > self.config.table_height + 0.05 {
            return self.config.table_height + 0.08 + half;
        }
        self.config.table_height + half
    }

    /// Forcibly releases a block at an elevated position (used when a task
    /// reset places a block on the slider shelf, which supports it against
    /// gravity).
    pub(crate) fn force_release_at(&mut self, color: BlockColor, position: Vec3) {
        let idx = color.index();
        self.blocks[idx].grasped = false;
        self.blocks[idx].position = position;
        if self.grasped_block == Some(color) {
            self.grasped_block = None;
        }
    }

    /// Moves a block to an arbitrary position during an episode reset.
    pub(crate) fn place_block(&mut self, color: BlockColor, position: Vec3) {
        let idx = color.index();
        self.blocks[idx].position = position;
        self.blocks[idx].grasped = false;
        if self.grasped_block == Some(color) {
            self.grasped_block = None;
        }
    }

    /// The articulation scalar most relevant to `object`, normalised to
    /// `[0, 1]` (used by the policy observation).
    pub fn articulation_state(&self, object: SceneObject) -> f64 {
        match object {
            SceneObject::Drawer => self.drawer_extension,
            SceneObject::Slider => self.slider_position,
            SceneObject::Switch => {
                if self.switch_on {
                    1.0
                } else {
                    0.0
                }
            }
            SceneObject::Button => {
                if self.led_on {
                    1.0
                } else {
                    0.0
                }
            }
            SceneObject::Block(_) => 0.0,
        }
    }
}

impl Default for Scene {
    fn default() -> Self {
        Scene::new(SceneConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corki_math::Vec3;

    fn pose(p: Vec3, gripper: GripperState) -> EePose {
        EePose::new(p, Vec3::ZERO, gripper)
    }

    #[test]
    fn grasping_requires_proximity_and_fresh_close() {
        let mut scene = Scene::default();
        let block_pos = scene.block(BlockColor::Red).position;
        // Closing far away grasps nothing.
        let far = pose(block_pos + Vec3::new(0.2, 0.0, 0.0), GripperState::Closed);
        scene.step(&far, &pose(far.position, GripperState::Open));
        assert_eq!(scene.grasped_block, None);
        // Closing at the block grasps it.
        let near_open = pose(block_pos, GripperState::Open);
        let near_closed = pose(block_pos, GripperState::Closed);
        scene.step(&near_closed, &near_open);
        assert_eq!(scene.grasped_block, Some(BlockColor::Red));
    }

    #[test]
    fn grasped_block_follows_gripper_and_drops_on_release() {
        let mut scene = Scene::default();
        let block_pos = scene.block(BlockColor::Blue).position;
        let near_open = pose(block_pos, GripperState::Open);
        let near_closed = pose(block_pos, GripperState::Closed);
        scene.step(&near_closed, &near_open);
        assert_eq!(scene.grasped_block, Some(BlockColor::Blue));
        // Carry it up and over.
        let lifted = pose(block_pos + Vec3::new(0.05, 0.05, 0.15), GripperState::Closed);
        scene.step(&lifted, &near_closed);
        assert!((scene.block(BlockColor::Blue).position - lifted.position).norm() < 1e-12);
        // Release: it falls back to table height.
        let released = pose(lifted.position, GripperState::Open);
        scene.step(&released, &lifted);
        assert_eq!(scene.grasped_block, None);
        let z = scene.block(BlockColor::Blue).position.z;
        assert!((z - (scene.config.table_height + scene.config.block_size / 2.0)).abs() < 1e-12);
    }

    #[test]
    fn drawer_opens_when_pulled_and_clamps() {
        let mut scene = Scene::default();
        let handle = scene.drawer_handle();
        let mut prev = pose(handle, GripperState::Closed);
        // Pull along +y in small increments.
        for i in 1..=20 {
            let next = pose(handle + Vec3::new(0.0, 0.01 * i as f64, 0.0), GripperState::Closed);
            scene.step(&next, &prev);
            prev = pose(scene.drawer_handle(), GripperState::Closed);
        }
        assert!(scene.drawer_extension > 0.5, "drawer should open, got {}", scene.drawer_extension);
        assert!(scene.drawer_extension <= 1.0);
    }

    #[test]
    fn switch_toggles_with_vertical_sweeps() {
        let mut scene = Scene { switch_on: false, ..Scene::default() };
        let lever = scene.config.switch_position;
        let below = pose(lever - Vec3::new(0.0, 0.0, 0.02), GripperState::Open);
        let above = pose(lever + Vec3::new(0.0, 0.0, 0.02), GripperState::Open);
        scene.step(&above, &below); // push up → on
        assert!(scene.switch_on);
        scene.step(&below, &above); // push down → off
        assert!(!scene.switch_on);
    }

    #[test]
    fn button_press_toggles_led() {
        let mut scene = Scene::default();
        let led_before = scene.led_on;
        let button = scene.config.button_position;
        let above = pose(button + Vec3::new(0.0, 0.0, 0.02), GripperState::Open);
        let pressed = pose(button - Vec3::new(0.0, 0.0, 0.005), GripperState::Open);
        scene.step(&pressed, &above);
        assert_eq!(scene.led_on, !led_before);
    }

    #[test]
    fn randomized_scenes_are_reproducible_and_blocks_do_not_overlap() {
        let a = Scene::randomized(42, false);
        let b = Scene::randomized(42, false);
        assert_eq!(a, b);
        let c = Scene::randomized(43, false);
        assert_ne!(a, c);
        for scene in [&a, &c] {
            for (i, x) in BlockColor::ALL.iter().enumerate() {
                for y in &BlockColor::ALL[i + 1..] {
                    let d = (scene.block(*x).position - scene.block(*y).position).norm();
                    assert!(d > 2.0 * scene.config.block_size, "blocks overlap: {d}");
                }
            }
        }
    }

    #[test]
    fn unseen_scenes_differ_from_seen_with_same_seed() {
        let seen = Scene::randomized(7, false);
        let unseen = Scene::randomized(7, true);
        assert_ne!(seen, unseen);
    }

    #[test]
    fn object_positions_track_articulation() {
        let mut scene = Scene::default();
        let closed_handle = scene.object_position(SceneObject::Drawer);
        scene.drawer_extension = 1.0;
        let open_handle = scene.object_position(SceneObject::Drawer);
        assert!((open_handle.y - closed_handle.y - scene.config.drawer_travel).abs() < 1e-12);
        assert_eq!(scene.articulation_state(SceneObject::Drawer), 1.0);
    }
}
